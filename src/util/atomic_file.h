#ifndef EMSIM_UTIL_ATOMIC_FILE_H_
#define EMSIM_UTIL_ATOMIC_FILE_H_

#include <string>
#include <string_view>

#include "util/status.h"

namespace emsim::util {

/// Crash-safe file publication: content is staged in a temp file next to the
/// destination, fsync'd, then renamed into place (and the parent directory
/// fsync'd), so readers observe either the complete old file or the complete
/// new file — never a torn or partially flushed artifact. Every artifact
/// writer (shard artifacts, merged sweep JSON, bench exports) must publish
/// through this class; the `artifact-raw-write` lint rule enforces it.
///
///     auto file = util::AtomicFile::Create(path);
///     EMSIM_RETURN_IF_ERROR(file.status());
///     EMSIM_RETURN_IF_ERROR(file->Append(doc));
///     EMSIM_RETURN_IF_ERROR(file->Commit());
///
/// An AtomicFile that is destroyed before Commit() removes its temp file, so
/// an error unwind leaves no debris behind.
class AtomicFile {
 public:
  /// Stages a temp file (`<path>.tmp.<pid>`) for `path`. Fails if the temp
  /// file cannot be created.
  static Result<AtomicFile> Create(const std::string& path);

  AtomicFile(AtomicFile&& other) noexcept;
  AtomicFile& operator=(AtomicFile&& other) noexcept;
  AtomicFile(const AtomicFile&) = delete;
  AtomicFile& operator=(const AtomicFile&) = delete;
  ~AtomicFile();

  /// Appends bytes to the staged temp file.
  Status Append(std::string_view data);

  /// fsync + close the temp file, rename it over the destination, fsync the
  /// parent directory. After an OK Commit the file is durably published;
  /// after a failed Commit the temp file is removed.
  Status Commit();

  /// Removes the temp file without publishing (idempotent; Commit's
  /// destructor fallback).
  void Discard();

 private:
  AtomicFile() = default;

  std::string path_;       ///< Final destination.
  std::string temp_path_;  ///< Staged content lives here until Commit.
  int fd_ = -1;
};

/// One-shot convenience: stage `contents`, then atomically publish it at
/// `path`.
Status WriteFileAtomic(const std::string& path, std::string_view contents);

/// The whole contents of the file at `path`. A file that cannot be opened or
/// read to its end (a directory, say) is an IoError naming the path, never
/// a short or empty text.
Result<std::string> ReadFile(const std::string& path);

}  // namespace emsim::util

#endif  // EMSIM_UTIL_ATOMIC_FILE_H_
