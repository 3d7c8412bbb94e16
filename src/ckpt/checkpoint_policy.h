// When the BSP engines snapshot their state. A checkpoint is taken at a
// superstep barrier — after the messaging phase has delivered the next
// superstep's inboxes — so the persisted image is exactly the input of the
// next superstep (see ckpt/checkpoint.h for what is captured). The policy
// only decides *whether* a given barrier checkpoints; it is part of
// RuntimeOptions so every engine shares the same knob.
#ifndef GRAPHITE_CKPT_CHECKPOINT_POLICY_H_
#define GRAPHITE_CKPT_CHECKPOINT_POLICY_H_

namespace graphite {

struct CheckpointPolicy {
  /// Checkpoint after supersteps k-1, 2k-1, ... (every k-th barrier);
  /// 1 = every barrier, 0 = never (default).
  int every_k = 0;

  static CheckpointPolicy None() { return {}; }
  static CheckpointPolicy EveryK(int k) { return {k < 1 ? 1 : k}; }

  bool enabled() const { return every_k > 0; }

  /// Decides the barrier at the end of `superstep`.
  bool ShouldCheckpoint(int superstep) const {
    return enabled() && (superstep + 1) % every_k == 0;
  }
};

}  // namespace graphite

#endif  // GRAPHITE_CKPT_CHECKPOINT_POLICY_H_
