// Short-write- and EINTR-safe POSIX file helpers, and the one read-only
// file view (FileBytes) that the cpgt reader and the model loader share.
//
// std::ofstream swallows partial-write detail: a full disk mid-write leaves
// failbit set (when anyone checks) but gives the caller no way to know what
// landed, and an EINTR during a large buffered flush is invisible. The
// durable-write paths of the runtime — stream checkpoints, distributed
// manifests, the cpgt block writer — go through these helpers instead:
// every write(2) return value is inspected, EINTR resumes, short writes
// continue from the written prefix, and failures carry errno as a
// std::system_error (which the resilient-sink failure classifier treats as
// retryable, stream/resilient_sink.h).
#pragma once

#include <cstddef>
#include <string>
#include <string_view>

namespace cpg::io {

// Writes all n bytes to fd, resuming across EINTR and short writes. Throws
// std::system_error (errno) on failure; `what` names the destination in the
// message.
void write_all_fd(int fd, const char* data, std::size_t n,
                  const std::string& what);

// Reads until EOF, resuming across EINTR. Throws std::system_error on
// failure.
std::string read_file(const std::string& path);

// A whole file's bytes, read-only. A regular non-empty file is mmapped
// (PROT_READ, MAP_PRIVATE, MADV_SEQUENTIAL), so parsing runs straight over
// the page cache with no up-front copy. Whatever mmap cannot take (empty
// files, pipes, character devices, filesystems without mmap) is read into
// a buffer instead; the bytes are the same either way. Throws
// std::system_error naming the path and errno when the file cannot be
// opened or read (a directory fails its read with EISDIR).
class FileBytes {
 public:
  explicit FileBytes(const std::string& path);
  ~FileBytes();

  FileBytes(const FileBytes&) = delete;
  FileBytes& operator=(const FileBytes&) = delete;

  std::string_view data() const noexcept { return data_; }
  // True when the bytes are mmapped (false = read fallback).
  bool mapped() const noexcept { return map_ != nullptr; }

 private:
  void* map_ = nullptr;    // mmap base, or null on the fallback path
  std::size_t map_len_ = 0;
  std::string buf_;        // fallback storage when mmap is unavailable
  std::string_view data_;  // the file bytes, whichever way they arrived
};

// Atomically replaces `path` with `data`: write `path`.tmp via write_all_fd,
// fsync, close (checked — a buffered ENOSPC at close is a failure, not a
// silent truncation), rename over `path`. The rename is the commit point; a
// crash at any earlier step leaves the previous file intact. The
// "io.write_file" failpoint fires before the write for fault tests.
void write_file_atomic(const std::string& path, std::string_view data);

}  // namespace cpg::io
