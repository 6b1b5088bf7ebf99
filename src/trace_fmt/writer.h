// Block-buffered cpgt trace writer (see cpgt.h for the format).
//
// The writer accumulates appended events in memory and cuts a columnar
// events block every `block_events` events (or at an explicit flush — the
// checkpoint path cuts at slice boundaries so a resume token always lands
// on a block boundary). All file I/O goes through the EINTR/short-write-safe
// helpers of io/file_util.h; a failed block write rolls the file back to the
// last committed block boundary (ftruncate) and leaves the buffered events
// in place, so the caller can retry the flush without duplicating or losing
// anything — the contract the resilient sink's retry loop needs.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/event_columns.h"
#include "core/trace.h"
#include "core/types.h"
#include "trace_fmt/cpgt.h"

namespace cpg::trace_fmt {

class TraceWriter {
 public:
  // Value-initialized block_events of 0 means k_default_block_events. (No
  // member initializer: GCC rejects `Options opts = {}` default arguments
  // on a nested class with NSDMIs while the enclosing class is incomplete.)
  struct Options {
    std::size_t block_events;
  };

  // Creates (or truncates) `path`. Nothing is written until begin().
  explicit TraceWriter(const std::string& path, Options options = {});

  // Re-attaches to the partial file a killed run left behind: validates the
  // on-disk header (magic, version, fingerprint — recomputed from the same
  // registry/window a fresh begin() would use), truncates to
  // `committed_offset` (a block boundary from a resume token) and continues
  // appending with `events_committed` already accounted. Throws
  // std::runtime_error naming the mismatch on a foreign or corrupt file.
  // `spatial` must match what the original begin() was given: it selects
  // the expected format version and re-enables cells blocks.
  TraceWriter(const std::string& path, std::span<const DeviceType> devices,
              TimeMs t_begin, TimeMs t_end, std::uint64_t committed_offset,
              std::uint64_t events_committed, Options options = {},
              const SpatialInfo* spatial = nullptr);

  ~TraceWriter();

  TraceWriter(const TraceWriter&) = delete;
  TraceWriter& operator=(const TraceWriter&) = delete;

  // Writes the file header and the UE registry block. Must be the first
  // call on a fresh (non-resume) writer. A non-null `spatial` makes this a
  // version-2 file: a spatial block follows the registry and every events
  // block is paired with a cells block (fed from the appended views' cell
  // column). Without it the output is bit-identical to a v1 writer.
  void begin(std::span<const DeviceType> devices, TimeMs t_begin, TimeMs t_end,
             const SpatialInfo* spatial = nullptr);

  // Buffers `events`, cutting and writing full blocks as the buffer fills.
  void append(std::span<const ControlEvent> events);

  // Columnar twin: buffers the same events with three column memcpys and
  // encodes blocks straight from the SoA buffer. Byte-identical output to
  // the AoS overload for the same event sequence; the two may be mixed
  // freely on one writer.
  void append(const EventColumnsView& events);

  // Retries writing already-buffered events without appending anything new
  // (the resilient sink calls this when it re-delivers a span whose first
  // attempt failed after buffering).
  void pump();

  // Cuts and writes everything buffered; after flush() the committed offset
  // equals the file size and every appended event is in the file.
  void flush();

  // flush() + end block + checked close. The file is complete and readable
  // after finish(); further appends are errors.
  void finish();

  std::uint64_t committed_offset() const noexcept { return committed_; }
  std::uint64_t events_committed() const noexcept {
    return events_committed_;
  }
  std::uint64_t events_appended() const noexcept { return events_appended_; }
  // Events held in the append buffer, written or not: less than one block
  // after every append that wrote cleanly.
  std::size_t buffered_events() const noexcept { return pending_.size(); }
  std::uint64_t fingerprint() const noexcept { return fingerprint_; }
  const std::string& path() const noexcept { return path_; }

 private:
  void open_fd(bool truncate);
  void write_block(std::size_t n);
  void write_buf();  // writes out_buf_, advancing committed_; rolls back on error

  std::string path_;
  int fd_ = -1;
  bool finished_ = false;
  bool cells_ = false;  // v2 file: emit a cells block per events block
  std::size_t block_events_;
  std::uint64_t fingerprint_ = 0;

  EventColumns pending_;
  std::size_t consumed_ = 0;  // prefix of pending_ already written
  std::string out_buf_;

  std::uint64_t committed_ = 0;  // durable file offset (block boundary)
  std::uint64_t events_committed_ = 0;
  std::uint64_t events_appended_ = 0;
};

}  // namespace cpg::trace_fmt
