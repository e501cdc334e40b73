#ifndef WAVEBATCH_UTIL_STATUS_H_
#define WAVEBATCH_UTIL_STATUS_H_

#include <optional>
#include <ostream>
#include <string>
#include <utility>

#include "util/check.h"

namespace wavebatch {

/// Machine-readable category of a failure. Mirrors the usual database-system
/// status taxonomy (RocksDB / Arrow style): library code reports errors by
/// value instead of throwing.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kOutOfRange,
  kNotFound,
  kAlreadyExists,
  kFailedPrecondition,
  kUnimplemented,
  kInternal,
  /// A transient failure (injected fault, flaky I/O): retrying the same
  /// operation may succeed.
  kUnavailable,
};

/// Returns a stable human-readable name for `code` (e.g. "InvalidArgument").
const char* StatusCodeName(StatusCode code);

/// Value-semantic success/error indicator returned by all fallible library
/// operations. Cheap to copy in the (common) OK case.
class Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}

  /// Constructs a status with `code` and a free-form diagnostic `message`.
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status AlreadyExists(std::string msg) {
    return Status(StatusCode::kAlreadyExists, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status Unimplemented(std::string msg) {
    return Status(StatusCode::kUnimplemented, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status Unavailable(std::string msg) {
    return Status(StatusCode::kUnavailable, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// Renders "OK" or "<CodeName>: <message>".
  std::string ToString() const;

 private:
  StatusCode code_;
  std::string message_;
};

inline std::ostream& operator<<(std::ostream& os, const Status& s) {
  return os << s.ToString();
}

/// Either a value of type `T` or a non-OK `Status` explaining its absence.
/// Accessing the value of an errored Result is a checked fatal error.
template <typename T>
class Result {
 public:
  /// Implicit-from-value: allows `return value;` from Result-returning code.
  Result(T value)  // NOLINT(google-explicit-constructor)
      : value_(std::move(value)) {}
  /// Implicit-from-status: allows `return Status::...;`. `status` must not
  /// be OK (an OK Result must carry a value).
  Result(Status status)  // NOLINT(google-explicit-constructor)
      : status_(std::move(status)) {
    WB_CHECK(!status_.ok()) << "Result constructed from OK status";
  }

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  const T& value() const& {
    WB_CHECK(ok()) << "Result::value() on error: " << status_.ToString();
    return *value_;
  }
  T& value() & {
    WB_CHECK(ok()) << "Result::value() on error: " << status_.ToString();
    return *value_;
  }
  T&& value() && {
    WB_CHECK(ok()) << "Result::value() on error: " << status_.ToString();
    return *std::move(value_);
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

 private:
  Status status_;  // OK iff value_ holds a value.
  std::optional<T> value_;
};

namespace internal_status {
inline const Status& GetStatus(const Status& s) { return s; }
template <typename T>
const Status& GetStatus(const Result<T>& r) {
  return r.status();
}
}  // namespace internal_status

}  // namespace wavebatch

/// Aborts with the status's diagnostic when `expr` (a Status or Result) is
/// not OK. For callers that treat a fallible operation as infallible —
/// tests, benches, and store reads that cannot fail by construction.
#define WB_CHECK_OK(expr)                                            \
  do {                                                               \
    auto&& wb_check_ok_value = (expr);                               \
    WB_CHECK(wb_check_ok_value.ok())                                 \
        << ::wavebatch::internal_status::GetStatus(wb_check_ok_value); \
  } while (0)

#endif  // WAVEBATCH_UTIL_STATUS_H_
