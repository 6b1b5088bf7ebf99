#include "trace_fmt/reader.h"

#include <stdexcept>
#include <utility>

#include "trace_fmt/cpgt.h"

namespace cpg::trace_fmt {

TraceReader::TraceReader(const std::string& path)
    : path_(path), file_(path_), data_(file_.data()) {
  fingerprint_ = decode_header(data_, path_, &version_);
  pos_ = k_header_bytes;
  DecodedBlock block;
  decode_block(data_, pos_, block, path_);
  if (block.type != BlockType::ues) {
    throw std::runtime_error(
        path_ + ": first block is not the UE registry (corrupt file or "
                "unsupported writer)");
  }
  devices_ = std::move(block.devices);
  // v2 files carry a spatial grid-geometry block right after the registry.
  if (pos_ < data_.size() &&
      data_[pos_] == static_cast<char>(BlockType::spatial)) {
    decode_block(data_, pos_, block, path_);
    spatial_ = block.spatial;
    has_spatial_ = true;
  }
}

bool TraceReader::next_events(std::vector<ControlEvent>& out) {
  out.clear();
  cells_.clear();
  if (done_) return false;
  DecodedBlock block;
  block.events = std::move(out);
  decode_block(data_, pos_, block, path_);
  switch (block.type) {
    case BlockType::events:
      decoded_events_ += block.events.size();
      out = std::move(block.events);
      // A paired cells block, when present, immediately follows its events
      // block and must agree on the event count.
      if (pos_ < data_.size() &&
          data_[pos_] == static_cast<char>(BlockType::cells)) {
        DecodedBlock cb;
        decode_block(data_, pos_, cb, path_);
        cells_ = std::move(cb.cells);
        if (cells_.size() != out.size()) {
          throw std::runtime_error(
              path_ + ": cells block count " + std::to_string(cells_.size()) +
              " disagrees with its events block (" +
              std::to_string(out.size()) + ")");
        }
      }
      return true;
    case BlockType::end:
      out = std::move(block.events);
      done_ = true;
      total_events_ = block.total_events;
      if (total_events_ != decoded_events_) {
        throw std::runtime_error(
            path_ + ": end block records " + std::to_string(total_events_) +
            " events but the file holds " + std::to_string(decoded_events_) +
            " (corrupt or mismatched blocks)");
      }
      if (pos_ != data_.size()) {
        throw std::runtime_error(path_ +
                                 ": trailing data after the end block");
      }
      return false;
    case BlockType::ues:
      throw std::runtime_error(
          path_ + ": unexpected second UE registry block (corrupt file)");
    case BlockType::spatial:
      throw std::runtime_error(
          path_ + ": unexpected spatial block mid-stream (corrupt file)");
    case BlockType::cells:
      throw std::runtime_error(
          path_ + ": cells block without a preceding events block "
                  "(corrupt file)");
  }
  throw std::runtime_error(path_ + ": unreachable block type");
}

Trace read_trace_cpgt(const std::string& path) {
  TraceReader reader(path);
  Trace trace;
  for (const DeviceType d : reader.devices()) trace.add_ue(d);
  std::vector<ControlEvent> block;
  while (reader.next_events(block)) trace.append_events(block);
  trace.finalize();
  return trace;
}

}  // namespace cpg::trace_fmt
