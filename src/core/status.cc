#include "core/status.h"

namespace lll {

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
    case StatusCode::kParseError:
      return "ParseError";
    case StatusCode::kTypeError:
      return "TypeError";
    case StatusCode::kCardinalityError:
      return "CardinalityError";
    case StatusCode::kConstructionError:
      return "ConstructionError";
    case StatusCode::kUnsupported:
      return "Unsupported";
    case StatusCode::kInternal:
      return "Internal";
    case StatusCode::kResourceExhausted:
      return "ResourceExhausted";
  }
  return "Unknown";
}

const std::string& Status::message() const {
  static const std::string& empty = *new std::string();
  return rep_ == nullptr ? empty : rep_->message;
}

const std::vector<std::string>& Status::context() const {
  static const std::vector<std::string>& empty =
      *new std::vector<std::string>();
  return rep_ == nullptr ? empty : rep_->context;
}

Status& Status::AddContext(std::string frame) {
  if (rep_ == nullptr) rep_.reset(new Rep{StatusCode::kOk, {}, {}});
  rep_->context.push_back(std::move(frame));
  return *this;
}

std::string Status::ToString() const {
  if (ok()) return "OK";
  std::string out = StatusCodeName(rep_->code);
  out += ": ";
  out += rep_->message;
  for (const std::string& frame : rep_->context) {
    out += "\n  ";
    out += frame;
  }
  return out;
}

}  // namespace lll
