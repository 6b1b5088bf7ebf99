#include "stream/csv_sink.h"

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "fault/failpoint.h"
#include "io/csv.h"
#include "stream/resilient_sink.h"

namespace cpg::stream {

namespace {

std::string events_tmp(const std::string& prefix) {
  return prefix + "_events.csv.tmp";
}
std::string ues_tmp(const std::string& prefix) {
  return prefix + "_ues.csv.tmp";
}

void rename_or_throw(const std::string& from, const std::string& to) {
  if (std::rename(from.c_str(), to.c_str()) != 0) {
    throw std::runtime_error("CsvSink: rename " + from + " -> " + to +
                             " failed");
  }
}

}  // namespace

CsvSink::CsvSink(std::ostream& events_os, std::ostream* ues_os)
    : events_os_(&events_os), ues_os_(ues_os) {}

CsvSink::CsvSink(const std::string& path_prefix)
    : path_prefix_(path_prefix) {
  if (path_prefix_.empty()) {
    throw std::invalid_argument("CsvSink: empty path prefix");
  }
}

CsvSink::~CsvSink() = default;

void CsvSink::open_tmp_files(bool resume) {
  // Resume re-attaches to the partial files a killed run left behind;
  // truncating them in the constructor would destroy the very bytes the
  // checkpoint token vouches for, hence in|out there.
  const auto mode =
      resume ? std::ios::in | std::ios::out : std::ios::out | std::ios::trunc;
  auto events =
      std::make_unique<std::ofstream>(events_tmp(path_prefix_), mode);
  if (!*events) {
    throw std::runtime_error("CsvSink: cannot open " +
                             events_tmp(path_prefix_));
  }
  auto ues = std::make_unique<std::ofstream>(ues_tmp(path_prefix_), mode);
  if (!*ues) {
    throw std::runtime_error("CsvSink: cannot open " + ues_tmp(path_prefix_));
  }
  events_os_ = events.get();
  ues_os_ = ues.get();
  owned_events_ = std::move(events);
  owned_ues_ = std::move(ues);
}

void CsvSink::write_headers(const StreamHeader& header) {
  if (ues_os_ != nullptr) {
    io::write_ues_csv_header(*ues_os_);
    for (std::size_t u = 0; u < header.ue_devices.size(); ++u) {
      io::append_ue_csv(*ues_os_, static_cast<UeId>(u),
                        header.ue_devices[u]);
    }
  }
  io::write_events_csv_header(*events_os_);
}

void CsvSink::on_start(const StreamHeader& header) {
  if (!path_prefix_.empty()) open_tmp_files(/*resume=*/false);
  events_ = 0;
  rewound_ = false;
  write_headers(header);
  if (!*events_os_ || (ues_os_ != nullptr && !*ues_os_)) {
    throw std::runtime_error("CsvSink: writing the CSV headers failed");
  }
  const std::streamoff off = events_os_->tellp();
  rewind_ok_ = off >= 0;
  committed_ = rewind_ok_ ? off : 0;
}

void CsvSink::commit_batch(std::uint64_t n) {
  events_ += n;
  if (rewind_ok_) {
    const std::streamoff off = events_os_->tellp();
    if (off >= 0) {
      committed_ = off;
    } else {
      events_os_->clear();
      rewind_ok_ = false;
    }
  }
}

void CsvSink::handle_write_failure(std::uint64_t n) {
  // Rewind to the last committed batch boundary so a retry re-delivers the
  // identical span onto clean ground, overwriting whatever part of the
  // failed delivery reached the stream. The stream's failbit is what
  // brought us here; clear it or seekp is a no-op.
  events_os_->clear();
  if (rewind_ok_) {
    events_os_->seekp(committed_, std::ios::beg);
    if (*events_os_) {
      rewound_ = true;
      throw SinkError("CsvSink: write failed after " +
                          std::to_string(events_) + " events (" +
                          std::to_string(n) +
                          "-event batch rewound for retry)",
                      FailureClass::retryable);
    }
    events_os_->clear();
  }
  throw SinkError(
      "CsvSink: write failed after " + std::to_string(events_) +
          " events and the stream cannot rewind; a retry would duplicate "
          "rows",
      FailureClass::fatal);
}

void CsvSink::on_event(const ControlEvent& e) {
  CPG_FAILPOINT("csv_sink.write");
  io::append_event_csv(*events_os_, e);
  if (!*events_os_) handle_write_failure(1);
  commit_batch(1);
}

void CsvSink::on_events(std::span<const ControlEvent> events) {
  CPG_FAILPOINT("csv_sink.write");
  for (const ControlEvent& e : events) io::append_event_csv(*events_os_, e);
  if (!*events_os_) handle_write_failure(events.size());
  commit_batch(events.size());
}

void CsvSink::on_event_columns(const EventColumnsView& cols) {
  if (cols.empty()) return;
  CPG_FAILPOINT("csv_sink.write");
  if (chunk_ == nullptr) {
    chunk_ = std::make_unique_for_overwrite<char[]>(k_chunk_bytes);
  }
  char* const begin = chunk_.get();
  // Past this point a longest row might not fit: write the chunk out first.
  char* const full = begin + k_chunk_bytes - io::k_max_event_row;
  char* p = begin;
  for (std::size_t i = 0; i < cols.n; ++i) {
    if (p > full) {
      events_os_->write(begin, p - begin);
      p = begin;
    }
    p = io::format_event_row(p, cols.ts[i], cols.ue[i], cols.type[i]);
  }
  events_os_->write(begin, p - begin);
  if (!*events_os_) handle_write_failure(cols.n);
  commit_batch(cols.n);
}

void CsvSink::on_finish() {
  events_os_->flush();
  if (ues_os_ != nullptr) ues_os_->flush();
  if (!*events_os_ || (ues_os_ != nullptr && !*ues_os_)) {
    throw SinkError("CsvSink: flush failed at finish",
                    FailureClass::retryable);
  }
  if (path_prefix_.empty()) return;
  // A rewind followed by a dropped (shorter) re-delivery can leave stale
  // bytes from the failed write past the current position; cut them off so
  // the final file ends at the last row actually committed.
  const std::streamoff final_size =
      rewound_ ? static_cast<std::streamoff>(events_os_->tellp())
               : std::streamoff{-1};
  // Close before renaming so the final files are complete when they appear.
  owned_events_.reset();
  owned_ues_.reset();
  events_os_ = nullptr;
  ues_os_ = nullptr;
  if (final_size >= 0) {
    std::error_code ec;
    std::filesystem::resize_file(events_tmp(path_prefix_),
                                 static_cast<std::uintmax_t>(final_size), ec);
    if (ec) {
      throw std::runtime_error("CsvSink: cannot truncate " +
                               events_tmp(path_prefix_) + ": " + ec.message());
    }
  }
  rename_or_throw(events_tmp(path_prefix_), path_prefix_ + "_events.csv");
  rename_or_throw(ues_tmp(path_prefix_), path_prefix_ + "_ues.csv");
}

std::string CsvSink::checkpoint_save() {
  // Stream-backed sinks cannot truncate at resume; an empty token tells the
  // runtime to fall back to a plain on_start.
  if (path_prefix_.empty()) return {};
  if (events_os_ == nullptr) {
    throw std::runtime_error("CsvSink: checkpoint_save before on_start");
  }
  events_os_->flush();
  ues_os_->flush();
  if (!*events_os_ || !*ues_os_) {
    throw std::runtime_error("CsvSink: flush failed during checkpoint");
  }
  const auto ev_off = events_os_->tellp();
  const auto ue_off = ues_os_->tellp();
  if (ev_off < 0 || ue_off < 0) {
    throw std::runtime_error("CsvSink: cannot determine file offsets");
  }
  std::ostringstream token;
  token << "csv " << ev_off << ' ' << ue_off << ' ' << events_;
  return token.str();
}

void CsvSink::checkpoint_resume(const std::string& token,
                                const StreamHeader& header) {
  if (path_prefix_.empty() || token.empty()) {
    on_start(header);
    return;
  }
  std::istringstream is(token);
  std::string tag;
  std::uint64_t ev_off = 0, ue_off = 0, events = 0;
  if (!(is >> tag >> ev_off >> ue_off >> events) || tag != "csv") {
    throw std::runtime_error("CsvSink: malformed checkpoint token '" + token +
                             "'");
  }
  // A graceful stop finalizes the staged files (rename .tmp -> final, no
  // litter); resuming such a run moves them back into staging first.
  for (const char* name : {"_events.csv", "_ues.csv"}) {
    const std::string final_path = path_prefix_ + name;
    const std::string staged = final_path + ".tmp";
    if (!std::filesystem::exists(staged) &&
        std::filesystem::exists(final_path)) {
      rename_or_throw(final_path, staged);
    }
  }
  // Cut the partial files back to the durable watermark; everything past it
  // will be re-generated and re-delivered.
  std::error_code ec;
  std::filesystem::resize_file(events_tmp(path_prefix_), ev_off, ec);
  if (ec) {
    throw std::runtime_error("CsvSink: cannot truncate " +
                             events_tmp(path_prefix_) + ": " + ec.message());
  }
  std::filesystem::resize_file(ues_tmp(path_prefix_), ue_off, ec);
  if (ec) {
    throw std::runtime_error("CsvSink: cannot truncate " +
                             ues_tmp(path_prefix_) + ": " + ec.message());
  }
  open_tmp_files(/*resume=*/true);
  events_os_->seekp(0, std::ios::end);
  ues_os_->seekp(0, std::ios::end);
  events_ = events;
  rewound_ = false;
  const std::streamoff off = events_os_->tellp();
  rewind_ok_ = off >= 0;
  committed_ = rewind_ok_ ? off : 0;
}

}  // namespace cpg::stream
