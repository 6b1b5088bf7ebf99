#include "io/file_util.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <system_error>

#include "fault/failpoint.h"

namespace cpg::io {

namespace {

[[noreturn]] void sys_fail(const std::string& what) {
  throw std::system_error(errno, std::generic_category(), what);
}

// Reads fd until EOF, resuming across EINTR; closes fd either way.
std::string read_fd(int fd, const std::string& path) {
  std::string out;
  char buf[1 << 16];
  while (true) {
    const ssize_t r = ::read(fd, buf, sizeof buf);
    if (r > 0) {
      out.append(buf, static_cast<std::size_t>(r));
      continue;
    }
    if (r == 0) break;
    if (errno == EINTR) continue;
    const int saved = errno;
    ::close(fd);
    errno = saved;
    sys_fail("read failed for " + path);
  }
  ::close(fd);
  return out;
}

int open_read(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) sys_fail("cannot open " + path);
  return fd;
}

}  // namespace

void write_all_fd(int fd, const char* data, std::size_t n,
                  const std::string& what) {
  std::size_t done = 0;
  while (done < n) {
    const ssize_t r = ::write(fd, data + done, n - done);
    if (r >= 0) {
      done += static_cast<std::size_t>(r);
      continue;
    }
    if (errno == EINTR) continue;
    sys_fail("write failed for " + what);
  }
}

std::string read_file(const std::string& path) {
  return read_fd(open_read(path), path);
}

FileBytes::FileBytes(const std::string& path) {
  const int fd = open_read(path);
  struct stat st{};
  if (::fstat(fd, &st) == 0 && S_ISREG(st.st_mode) && st.st_size > 0) {
    const auto len = static_cast<std::size_t>(st.st_size);
    void* m = ::mmap(nullptr, len, PROT_READ, MAP_PRIVATE, fd, 0);
    if (m != MAP_FAILED) {
      ::close(fd);
      map_ = m;
      map_len_ = len;
      // Every reader walks front to back; let readahead run ahead of it.
      ::madvise(map_, map_len_, MADV_SEQUENTIAL);
      data_ = std::string_view(static_cast<const char*>(map_), map_len_);
      return;
    }
  }
  buf_ = read_fd(fd, path);
  data_ = buf_;
}

FileBytes::~FileBytes() {
  if (map_ != nullptr) ::munmap(map_, map_len_);
}

void write_file_atomic(const std::string& path, std::string_view data) {
  CPG_FAILPOINT("io.write_file");
  const std::string tmp = path + ".tmp";
  const int fd =
      ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) sys_fail("cannot open " + tmp);
  try {
    write_all_fd(fd, data.data(), data.size(), tmp);
    // fsync before rename: without it the rename can land while the data is
    // still in the page cache, and a crash publishes a truncated file under
    // the final name — exactly what the atomic pattern exists to prevent.
    if (::fsync(fd) != 0) sys_fail("fsync failed for " + tmp);
  } catch (...) {
    ::close(fd);
    throw;
  }
  if (::close(fd) != 0) sys_fail("close failed for " + tmp);
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    sys_fail("rename " + tmp + " -> " + path + " failed");
  }
}

}  // namespace cpg::io
