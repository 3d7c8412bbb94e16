#include "util/status.h"

namespace graphite {

const char* StatusCodeName(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "OK";
    case StatusCode::kInvalidArgument:
      return "InvalidArgument";
    case StatusCode::kNotFound:
      return "NotFound";
    case StatusCode::kOutOfRange:
      return "OutOfRange";
    case StatusCode::kConstraintViolation:
      return "ConstraintViolation";
    case StatusCode::kIoError:
      return "IoError";
    case StatusCode::kInternal:
      return "Internal";
    case StatusCode::kDataLoss:
      return "DataLoss";
  }
  return "Unknown";
}

std::string Status::ToString() const {
  if (ok()) return "OK";
  std::string out = StatusCodeName(code_);
  out += ": ";
  out += message_;
  return out;
}

}  // namespace graphite
