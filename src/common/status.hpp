// Status / StatusOr<T>: error propagation for expected runtime failures.
//
// Programming errors use RHSD_CHECK (check.hpp); environmental and
// protocol failures (bad LBA from a tenant, permission denied, corrupt
// filesystem metadata — which this library *deliberately produces*) are
// values of type Status so that callers can observe and react to them.
#pragma once

#include <memory>
#include <optional>
#include <ostream>
#include <string>
#include <utility>

#include "common/check.hpp"

namespace rhsd {

enum class StatusCode {
  kOk = 0,
  kInvalidArgument,   // caller passed an out-of-domain value
  kOutOfRange,        // address outside a partition / device
  kNotFound,          // no such file, unmapped LBA, ...
  kAlreadyExists,     // create over an existing name
  kPermissionDenied,  // FS access control said no
  kCorruption,        // checksum mismatch, invalid on-media structure
  kResourceExhausted, // no free blocks / inodes / pages
  kFailedPrecondition,// operation not valid in current state
  kUnimplemented,
  kAborted,           // operation cut short (power loss, host abort)
  kDeadlineExceeded,  // command timed out (retries exhausted)
  kUnavailable,       // transient device failure (may succeed on retry)
};

[[nodiscard]] const char* to_string(StatusCode code);

/// An OK status is two zero words: the code inline, and a null message
/// pointer.  Only a non-OK status with a message allocates, so the
/// per-command completion path never touches the heap on success.
class [[nodiscard]] Status {
 public:
  Status() = default;  // OK
  Status(StatusCode code, std::string message);

  Status(const Status& other);
  Status& operator=(const Status& other);
  Status(Status&& other) noexcept = default;
  Status& operator=(Status&& other) noexcept = default;

  [[nodiscard]] static Status Ok() { return Status(); }

  [[nodiscard]] bool ok() const { return code_ == StatusCode::kOk; }
  [[nodiscard]] StatusCode code() const { return code_; }
  /// Empty for an OK status (and for an error built without a message).
  [[nodiscard]] const std::string& message() const;

  [[nodiscard]] std::string to_string() const;

  friend std::ostream& operator<<(std::ostream& os, const Status& s) {
    return os << s.to_string();
  }

 private:
  StatusCode code_ = StatusCode::kOk;
  std::unique_ptr<std::string> message_;
};

[[nodiscard]] Status InvalidArgument(std::string msg);
[[nodiscard]] Status OutOfRange(std::string msg);
[[nodiscard]] Status NotFound(std::string msg);
[[nodiscard]] Status AlreadyExists(std::string msg);
[[nodiscard]] Status PermissionDenied(std::string msg);
[[nodiscard]] Status Corruption(std::string msg);
[[nodiscard]] Status ResourceExhausted(std::string msg);
[[nodiscard]] Status FailedPrecondition(std::string msg);
[[nodiscard]] Status Unimplemented(std::string msg);
[[nodiscard]] Status Aborted(std::string msg);
[[nodiscard]] Status DeadlineExceeded(std::string msg);
[[nodiscard]] Status Unavailable(std::string msg);

/// Value-or-Status. Minimal std::expected stand-in (C++20 toolchain).
template <typename T>
class [[nodiscard]] StatusOr {
 public:
  StatusOr(Status status) : status_(std::move(status)) {  // NOLINT(implicit)
    RHSD_CHECK_MSG(!status_.ok(), "StatusOr constructed from OK status");
  }
  StatusOr(T value)  // NOLINT(implicit)
      : value_(std::move(value)) {}

  [[nodiscard]] bool ok() const { return status_.ok(); }
  [[nodiscard]] const Status& status() const { return status_; }

  [[nodiscard]] const T& value() const& {
    RHSD_CHECK_MSG(ok(), "StatusOr::value on error: " << status_);
    return *value_;
  }
  [[nodiscard]] T& value() & {
    RHSD_CHECK_MSG(ok(), "StatusOr::value on error: " << status_);
    return *value_;
  }
  [[nodiscard]] T&& value() && {
    RHSD_CHECK_MSG(ok(), "StatusOr::value on error: " << status_);
    return std::move(*value_);
  }

  [[nodiscard]] const T& operator*() const& { return value(); }
  [[nodiscard]] T& operator*() & { return value(); }
  [[nodiscard]] const T* operator->() const { return &value(); }
  [[nodiscard]] T* operator->() { return &value(); }

 private:
  Status status_;
  std::optional<T> value_;
};

}  // namespace rhsd

/// Propagate a non-OK Status to the caller.
#define RHSD_RETURN_IF_ERROR(expr)                \
  do {                                            \
    ::rhsd::Status rhsd_status_ = (expr);         \
    if (!rhsd_status_.ok()) return rhsd_status_;  \
  } while (0)

/// Bind `lhs` to the value of a StatusOr expression or propagate its error.
#define RHSD_ASSIGN_OR_RETURN(lhs, expr)                   \
  RHSD_ASSIGN_OR_RETURN_IMPL_(                             \
      RHSD_STATUS_CONCAT_(rhsd_statusor_, __LINE__), lhs, expr)
#define RHSD_STATUS_CONCAT_INNER_(a, b) a##b
#define RHSD_STATUS_CONCAT_(a, b) RHSD_STATUS_CONCAT_INNER_(a, b)
#define RHSD_ASSIGN_OR_RETURN_IMPL_(tmp, lhs, expr) \
  auto tmp = (expr);                                \
  if (!tmp.ok()) return tmp.status();               \
  lhs = std::move(tmp).value()
