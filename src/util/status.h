// Status / Result error-handling primitives in the Arrow/RocksDB idiom.
// The library does not throw exceptions; fallible operations return a
// Status (or a Result<T> carrying a value on success).
#ifndef GRAPHITE_UTIL_STATUS_H_
#define GRAPHITE_UTIL_STATUS_H_

#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <variant>

namespace graphite {

/// Broad machine-inspectable error categories.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kOutOfRange,
  kConstraintViolation,  ///< Temporal-graph soundness constraint broken.
  kIoError,
  kInternal,
  kDataLoss,  ///< At-rest bytes are corrupt/truncated (checksum, codec).
};

/// Returns a human-readable name for a StatusCode ("InvalidArgument", ...).
const char* StatusCodeName(StatusCode code);

/// A success-or-error outcome. Cheap to copy on the OK path (no allocation).
class Status {
 public:
  /// Constructs an OK status.
  Status() = default;

  /// Constructs an error status with the given code and message.
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status ConstraintViolation(std::string msg) {
    return Status(StatusCode::kConstraintViolation, std::move(msg));
  }
  static Status IoError(std::string msg) {
    return Status(StatusCode::kIoError, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status DataLoss(std::string msg) {
    return Status(StatusCode::kDataLoss, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "OK" or "<CodeName>: <message>".
  std::string ToString() const;

 private:
  StatusCode code_ = StatusCode::kOk;
  std::string message_;
};

/// A value-or-error outcome. Accessing the value of an error Result aborts.
template <typename T>
class Result {
 public:
  /// Implicit from a value: success.
  Result(T value) : payload_(std::move(value)) {}  // NOLINT
  /// Implicit from a non-OK Status: failure. Passing an OK status is a bug.
  Result(Status status) : payload_(std::move(status)) {  // NOLINT
    if (std::get<Status>(payload_).ok()) {
      std::fprintf(stderr, "Result constructed from OK Status\n");
      std::abort();
    }
  }

  bool ok() const { return std::holds_alternative<T>(payload_); }

  /// Status of the outcome; OK when a value is present.
  Status status() const {
    return ok() ? Status::OK() : std::get<Status>(payload_);
  }

  const T& value() const& {
    CheckOk();
    return std::get<T>(payload_);
  }
  T& value() & {
    CheckOk();
    return std::get<T>(payload_);
  }
  T&& value() && {
    CheckOk();
    return std::get<T>(std::move(payload_));
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

 private:
  void CheckOk() const {
    if (!ok()) {
      std::fprintf(stderr, "Result::value() on error: %s\n",
                   std::get<Status>(payload_).ToString().c_str());
      std::abort();
    }
  }

  std::variant<T, Status> payload_;
};

/// Propagates a non-OK Status from an expression to the caller.
#define GRAPHITE_RETURN_NOT_OK(expr)            \
  do {                                          \
    ::graphite::Status _st = (expr);            \
    if (!_st.ok()) return _st;                  \
  } while (0)

/// Aborts with a message when `cond` is false. Active in all build types:
/// these guard internal invariants whose violation would corrupt results.
#define GRAPHITE_CHECK(cond)                                              \
  do {                                                                    \
    if (!(cond)) {                                                        \
      std::fprintf(stderr, "CHECK failed at %s:%d: %s\n", __FILE__,       \
                   __LINE__, #cond);                                      \
      std::abort();                                                       \
    }                                                                     \
  } while (0)

}  // namespace graphite

#endif  // GRAPHITE_UTIL_STATUS_H_
