#ifndef EMSIM_UTIL_STATUS_H_
#define EMSIM_UTIL_STATUS_H_

#include <cstdint>
#include <optional>
#include <string>
#include <utility>

#include "util/check.h"

namespace emsim {

/// Canonical error codes used across the library. Modeled on the
/// RocksDB/Abseil convention: fallible library boundaries return a Status (or
/// a Result<T>) instead of throwing.
enum class StatusCode : uint8_t {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kOutOfRange,
  kFailedPrecondition,
  kResourceExhausted,
  kInternal,
  kUnimplemented,
  kCorruption,
  kIoError,
  kDeadlineExceeded,
};

/// Returns a human-readable name for `code` (e.g. "InvalidArgument").
const char* StatusCodeName(StatusCode code);

/// A lightweight success-or-error value. An OK status carries no message and
/// no allocation; error statuses carry a code and a message.
///
/// The class is [[nodiscard]]: a call site that receives a Status must
/// consult it (or explicitly cast it to void). Silently dropped error codes
/// are the bug class the determinism lint and clang-tidy gate exist to stop.
class [[nodiscard]] Status {
 public:
  /// Constructs an OK status.
  Status() = default;

  /// Constructs a status with the given code and message. A code of kOk
  /// ignores the message.
  Status(StatusCode code, std::string message)
      : code_(code), message_(code == StatusCode::kOk ? std::string() : std::move(message)) {}

  [[nodiscard]] static Status OK() { return Status(); }
  [[nodiscard]] static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  [[nodiscard]] static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  [[nodiscard]] static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  [[nodiscard]] static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  [[nodiscard]] static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }
  [[nodiscard]] static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  [[nodiscard]] static Status Unimplemented(std::string msg) {
    return Status(StatusCode::kUnimplemented, std::move(msg));
  }
  [[nodiscard]] static Status Corruption(std::string msg) {
    return Status(StatusCode::kCorruption, std::move(msg));
  }
  [[nodiscard]] static Status IoError(std::string msg) {
    return Status(StatusCode::kIoError, std::move(msg));
  }
  [[nodiscard]] static Status DeadlineExceeded(std::string msg) {
    return Status(StatusCode::kDeadlineExceeded, std::move(msg));
  }

  [[nodiscard]] bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "OK" or "<CodeName>: <message>".
  std::string ToString() const;

  bool operator==(const Status& other) const {
    return code_ == other.code_ && message_ == other.message_;
  }

 private:
  StatusCode code_ = StatusCode::kOk;
  std::string message_;
};

/// A value-or-Status, the library's equivalent of absl::StatusOr<T>.
template <typename T>
class [[nodiscard]] Result {
 public:
  /// Implicit construction from a value (success).
  Result(T value) : value_(std::move(value)) {}  // NOLINT(google-explicit-constructor)

  /// Implicit construction from a non-OK status (failure). Constructing a
  /// Result from an OK status is a programming error.
  Result(Status status) : status_(std::move(status)) {  // NOLINT(google-explicit-constructor)
    EMSIM_CHECK(!status_.ok() && "Result constructed from OK status without a value");
  }

  [[nodiscard]] bool ok() const { return value_.has_value(); }
  const Status& status() const { return status_; }

  /// Returns the contained value; it is a fatal error if !ok().
  const T& value() const& {
    EMSIM_CHECK(ok() && "Result::value() called on error Result");
    return *value_;
  }
  T& value() & {
    EMSIM_CHECK(ok() && "Result::value() called on error Result");
    return *value_;
  }
  T&& value() && {
    EMSIM_CHECK(ok() && "Result::value() called on error Result");
    return std::move(*value_);
  }

  const T& value_or(const T& fallback) const { return ok() ? *value_ : fallback; }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  /// `*std::move(result)` moves the value out rather than copying it.
  T&& operator*() && { return std::move(*this).value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

 private:
  std::optional<T> value_;
  Status status_;  // OK when value_ holds a value.
};

/// Propagates a non-OK status from an expression, RocksDB-style.
#define EMSIM_RETURN_IF_ERROR(expr)                 \
  do {                                              \
    ::emsim::Status _emsim_status_tmp = (expr);     \
    if (!_emsim_status_tmp.ok()) {                  \
      return _emsim_status_tmp;                     \
    }                                               \
  } while (false)

}  // namespace emsim

#endif  // EMSIM_UTIL_STATUS_H_
