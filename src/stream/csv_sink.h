// EventSink that writes the stream as it arrives in the src/io CSV trace
// format, byte-compatible with io::write_events_csv / write_ues_csv over
// the captured trace — without ever materializing it.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <memory>
#include <string>

#include "stream/event_sink.h"

namespace cpg::stream {

// The file-backed sink is crash-safe: it writes `<prefix>_events.csv.tmp` /
// `<prefix>_ues.csv.tmp` (opened lazily at on_start, so a constructed-but-
// unused sink leaves no files) and renames both to their final names at
// on_finish. A reader therefore never observes a torn final file, and a
// killed run leaves only `.tmp` files behind — which checkpoint_resume
// re-attaches to.
//
// As a CheckpointParticipant the file-backed sink saves its flushed byte
// offsets; resume truncates the `.tmp` files back to those offsets so the
// re-delivered events continue byte-identically. The stream-backed
// constructor cannot truncate and does not participate (empty token;
// a resumed stream gets a plain on_start).
//
// The runtime's column deliveries take the fast path (on_event_columns):
// rows go through io::format_event_row into a fixed k_chunk_bytes buffer
// that is written each time it fills, so a delivery reaches the stream as
// a few large writes and never as ControlEvents. The CSV dialect has no
// cell column; a spatial stream's cells are not written. The AoS on_event /
// on_events, which only direct callers reach, write one row at a time.
//
// Write failures (a full disk, a yanked mount) are detected once per
// delivery, after its last write — ofstream alone would swallow them until
// someone happened to check failbit. On failure the sink rewinds the stream
// to the end of the last committed delivery, which also cuts every chunk of
// the failed delivery that already reached it, and throws a *retryable*
// SinkError, so a supervising ResilientSink can re-deliver the identical
// span without duplicating or losing rows; if rewinding is impossible
// (non-seekable stream) the error is fatal instead, because a blind retry
// would duplicate whatever prefix reached the device.
class CsvSink final : public EventSink, public CheckpointParticipant {
 public:
  // Size of the buffer a column delivery is formatted into.
  static constexpr std::size_t k_chunk_bytes = 64 * 1024;

  // Writes events to `events_os`; when `ues_os` is non-null, the UE registry
  // is written there on stream start. Streams must outlive the sink's use.
  explicit CsvSink(std::ostream& events_os, std::ostream* ues_os = nullptr);

  // File-backed: will produce <path_prefix>_events.csv and
  // <path_prefix>_ues.csv, mirroring io::write_trace. Files open at
  // on_start (std::runtime_error on failure), land under their final names
  // at on_finish.
  explicit CsvSink(const std::string& path_prefix);

  ~CsvSink() override;

  void on_start(const StreamHeader& header) override;
  void on_event(const ControlEvent& e) override;
  void on_events(std::span<const ControlEvent> events) override;
  void on_event_columns(const EventColumnsView& cols) override;
  void on_finish() override;

  std::string checkpoint_save() override;
  void checkpoint_resume(const std::string& token,
                         const StreamHeader& header) override;

  std::uint64_t events_written() const noexcept { return events_; }

 private:
  void open_tmp_files(bool resume);
  void write_headers(const StreamHeader& header);
  void commit_batch(std::uint64_t n);
  [[noreturn]] void handle_write_failure(std::uint64_t n);

  std::string path_prefix_;  // empty for the stream-backed variant
  std::unique_ptr<std::ostream> owned_events_;
  std::unique_ptr<std::ostream> owned_ues_;
  std::ostream* events_os_ = nullptr;
  std::ostream* ues_os_ = nullptr;
  std::unique_ptr<char[]> chunk_;  // k_chunk_bytes, allocated on first use
  std::uint64_t events_ = 0;
  // Offset of the last successful batch boundary (rewind target), and
  // whether the stream supports seeking back to it.
  std::streamoff committed_ = 0;
  bool rewind_ok_ = false;
  bool rewound_ = false;  // a retry/drop may have left stale bytes past EOF
};

}  // namespace cpg::stream
