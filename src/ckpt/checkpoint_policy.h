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
  enum class Mode {
    kNone,    ///< Never checkpoint (default).
    kEveryK,  ///< At every k-th superstep barrier.
  };

  Mode mode = Mode::kNone;
  /// kEveryK: checkpoint after supersteps k-1, 2k-1, ... (i.e. every k-th
  /// barrier). 1 = every barrier.
  int every_k = 1;

  static CheckpointPolicy None() { return {}; }
  static CheckpointPolicy EveryK(int k) {
    CheckpointPolicy p;
    p.mode = Mode::kEveryK;
    p.every_k = k < 1 ? 1 : k;
    return p;
  }

  bool enabled() const { return mode != Mode::kNone; }

  /// Decides the barrier at the end of `superstep`.
  bool ShouldCheckpoint(int superstep) const {
    return mode == Mode::kEveryK && (superstep + 1) % every_k == 0;
  }
};

}  // namespace graphite

#endif  // GRAPHITE_CKPT_CHECKPOINT_POLICY_H_
