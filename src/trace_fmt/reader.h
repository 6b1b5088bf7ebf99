// Streaming cpgt reader (see cpgt.h for the format).
//
// TraceReader walks a .cpgt file block by block without loading event data
// twice: each next_events() call decodes exactly one events block into the
// caller's buffer. Corruption anywhere — torn tail, flipped bit, foreign
// magic, newer version — surfaces as a one-line std::runtime_error naming
// the file and the failure, never as silently wrong events.
//
// The file bytes come through io::FileBytes: mmapped read-only
// (MADV_SEQUENTIAL) rather than read into a heap buffer, so block decode
// works directly over the page cache, opening a multi-GB trace costs no
// up-front copy and cat/validate scans touch each page once. Files mmap
// cannot handle (empty files, pipes, filesystems without mmap) fall back to
// a plain read — identical behavior, just buffered.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/trace.h"
#include "core/types.h"
#include "io/file_util.h"
#include "trace_fmt/cpgt.h"

namespace cpg::trace_fmt {

class TraceReader {
 public:
  // Opens `path`, validates the header and reads the UE registry block
  // (which the writer always emits first). Throws std::runtime_error on any
  // malformed input.
  explicit TraceReader(const std::string& path);

  TraceReader(const TraceReader&) = delete;
  TraceReader& operator=(const TraceReader&) = delete;

  // Decodes the next events block into `out` (replacing its contents).
  // Returns false — with `out` empty — once the end block is reached; the
  // end block's event count is checked against the events actually decoded.
  // Throws on a torn file (EOF without an end block) or corrupt block.
  // When the block is paired with a cells block (cpgt v2), cells() holds
  // the matching cell column until the next call.
  bool next_events(std::vector<ControlEvent>& out);

  std::uint64_t fingerprint() const noexcept { return fingerprint_; }
  // File format version (1 = plain, 2 = spatial-capable).
  std::uint32_t version() const noexcept { return version_; }
  // True when the file carries a spatial grid-geometry block.
  bool has_spatial() const noexcept { return has_spatial_; }
  const SpatialInfo& spatial() const noexcept { return spatial_; }
  // Cell column of the most recent next_events() block; empty when that
  // block had no cells (always empty for v1 files).
  const std::vector<std::uint32_t>& cells() const noexcept { return cells_; }
  const std::vector<DeviceType>& devices() const noexcept { return devices_; }
  // Total events per the end block; valid once next_events returned false.
  std::uint64_t total_events() const noexcept { return total_events_; }
  const std::string& path() const noexcept { return path_; }
  // True when the file bytes are mmapped (false = read-file fallback).
  bool mapped() const noexcept { return file_.mapped(); }

 private:
  std::string path_;
  io::FileBytes file_;
  std::string_view data_;  // file_.data()
  std::size_t pos_ = 0;
  bool done_ = false;
  std::uint64_t fingerprint_ = 0;
  std::uint32_t version_ = 0;
  bool has_spatial_ = false;
  SpatialInfo spatial_{};
  std::vector<std::uint32_t> cells_;
  std::uint64_t decoded_events_ = 0;
  std::uint64_t total_events_ = 0;
  std::vector<DeviceType> devices_;
};

// Convenience: reads a whole .cpgt file into a Trace (registry + events).
Trace read_trace_cpgt(const std::string& path);

}  // namespace cpg::trace_fmt
