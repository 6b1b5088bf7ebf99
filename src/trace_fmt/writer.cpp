#include "trace_fmt/writer.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <stdexcept>
#include <system_error>
#include <utility>

#include "fault/failpoint.h"
#include "io/file_util.h"
#include "trace_fmt/cpgt.h"

namespace cpg::trace_fmt {

namespace {

[[noreturn]] void sys_fail(const std::string& what) {
  throw std::system_error(errno, std::generic_category(), what);
}

}  // namespace

TraceWriter::TraceWriter(const std::string& path, Options options)
    : path_(path),
      block_events_(options.block_events != 0 ? options.block_events
                                              : k_default_block_events) {
  open_fd(/*truncate=*/true);
}

TraceWriter::TraceWriter(const std::string& path,
                         std::span<const DeviceType> devices, TimeMs t_begin,
                         TimeMs t_end, std::uint64_t committed_offset,
                         std::uint64_t events_committed, Options options,
                         const SpatialInfo* spatial)
    : path_(path),
      cells_(spatial != nullptr),
      block_events_(options.block_events != 0 ? options.block_events
                                              : k_default_block_events) {
  open_fd(/*truncate=*/false);
  std::string head(k_header_bytes, '\0');
  std::size_t got = 0;
  while (got < head.size()) {
    const ssize_t r = ::read(fd_, head.data() + got, head.size() - got);
    if (r > 0) {
      got += static_cast<std::size_t>(r);
      continue;
    }
    if (r == 0) break;
    if (errno == EINTR) continue;
    sys_fail("read failed for " + path_);
  }
  head.resize(got);
  std::uint32_t version = 0;
  const std::uint64_t on_disk = decode_header(head, path_, &version);
  const std::uint32_t want_version = cells_ ? k_version : k_version_plain;
  if (version != want_version) {
    throw std::runtime_error(
        path_ + ": cpgt version mismatch on resume (file is version " +
        std::to_string(version) + ", this run writes version " +
        std::to_string(want_version) +
        " — the spatial layer was toggled between runs)");
  }
  fingerprint_ = run_fingerprint(devices, t_begin, t_end);
  if (on_disk != fingerprint_) {
    throw std::runtime_error(
        path_ + ": run fingerprint mismatch on resume (file was written by a "
                "different run/config — remove it or fix the resume paths)");
  }
  if (committed_offset < k_header_bytes) {
    throw std::runtime_error(path_ +
                             ": resume offset smaller than the file header");
  }
  if (::ftruncate(fd_, static_cast<off_t>(committed_offset)) != 0) {
    sys_fail("ftruncate failed for " + path_);
  }
  if (::lseek(fd_, 0, SEEK_END) < 0) sys_fail("lseek failed for " + path_);
  committed_ = committed_offset;
  events_committed_ = events_committed;
  events_appended_ = events_committed;
}

TraceWriter::~TraceWriter() {
  if (fd_ >= 0) ::close(fd_);
}

void TraceWriter::open_fd(bool truncate) {
  const int flags =
      O_RDWR | O_CREAT | O_CLOEXEC | (truncate ? O_TRUNC : 0);
  fd_ = ::open(path_.c_str(), flags, 0644);
  if (fd_ < 0) sys_fail("cannot open " + path_);
}

void TraceWriter::begin(std::span<const DeviceType> devices, TimeMs t_begin,
                        TimeMs t_end, const SpatialInfo* spatial) {
  if (committed_ != 0 || finished_) {
    throw std::logic_error(path_ + ": begin() on an already-started writer");
  }
  cells_ = spatial != nullptr;
  fingerprint_ = run_fingerprint(devices, t_begin, t_end);
  out_buf_.clear();
  encode_header(out_buf_, fingerprint_,
                cells_ ? k_version : k_version_plain);
  encode_ues_block(out_buf_, devices);
  if (cells_) encode_spatial_block(out_buf_, *spatial);
  write_buf();
}

void TraceWriter::append(std::span<const ControlEvent> events) {
  if (finished_) {
    throw std::logic_error(path_ + ": append() after finish()");
  }
  pending_.append(events);
  events_appended_ += events.size();
  pump();
}

void TraceWriter::append(const EventColumnsView& events) {
  if (finished_) {
    throw std::logic_error(path_ + ": append() after finish()");
  }
  pending_.append(events);
  events_appended_ += events.size();
  pump();
}

void TraceWriter::pump() {
  while (pending_.size() - consumed_ >= block_events_) {
    write_block(block_events_);
  }
  // Move the sub-block tail to the front: appends rarely end on a block
  // boundary, so without this the written prefix would stay buffered and
  // the buffer would grow with the run instead of holding less than one
  // block between appends.
  if (consumed_ > 0) {
    const auto written = static_cast<std::ptrdiff_t>(consumed_);
    const auto drop = [written](auto& col) {
      col.erase(col.begin(), col.begin() + written);
    };
    // A cell column that does not span the buffer is absent (view() drops
    // it), so it has no tail to keep.
    if (pending_.cell.size() == pending_.ts.size()) {
      drop(pending_.cell);
    } else {
      pending_.cell.clear();
    }
    drop(pending_.ts);
    drop(pending_.ue);
    drop(pending_.type);
    consumed_ = 0;
  }
}

void TraceWriter::flush() {
  while (consumed_ < pending_.size()) {
    const std::size_t left = pending_.size() - consumed_;
    write_block(left < block_events_ ? left : block_events_);
  }
  pending_.clear();
  consumed_ = 0;
}

void TraceWriter::finish() {
  if (finished_) return;
  flush();
  out_buf_.clear();
  encode_end_block(out_buf_, events_committed_);
  write_buf();
  finished_ = true;
  const int fd = std::exchange(fd_, -1);
  if (::close(fd) != 0) sys_fail("close failed for " + path_);
}

void TraceWriter::write_block(std::size_t n) {
  out_buf_.clear();
  const EventColumnsView span = pending_.view().subview(consumed_, n);
  encode_events_block(out_buf_, span);
  // A v2 file pairs every events block with its cell column. Appends that
  // arrived without cells (foreign AoS input) simply have no cells block —
  // readers treat the column as absent for that span.
  if (cells_ && span.cell != nullptr) {
    encode_cells_block(out_buf_, std::span<const std::uint32_t>(span.cell, n));
  }
  write_buf();
  consumed_ += n;
  events_committed_ += n;
  if (consumed_ == pending_.size()) {
    pending_.clear();
    consumed_ = 0;
  }
}

void TraceWriter::write_buf() {
  try {
    CPG_FAILPOINT("cpgt.write_block");
    io::write_all_fd(fd_, out_buf_.data(), out_buf_.size(), path_);
  } catch (...) {
    // Roll the file back to the last committed block boundary so a retry
    // re-encodes from clean state instead of appending after a torn block.
    if (::ftruncate(fd_, static_cast<off_t>(committed_)) != 0) {
      throw std::runtime_error(
          path_ + ": rollback ftruncate failed after a write error; the "
                  "file is torn and the sink cannot retry");
    }
    if (::lseek(fd_, 0, SEEK_END) < 0) {
      throw std::runtime_error(
          path_ + ": rollback lseek failed after a write error");
    }
    throw;
  }
  committed_ += out_buf_.size();
}

}  // namespace cpg::trace_fmt
