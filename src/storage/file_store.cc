#include "storage/file_store.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <mutex>
#include <numeric>
#include <thread>
#include <vector>

#include "telemetry/metrics.h"
#include "util/check.h"
#include "util/thread_pool.h"

namespace wavebatch {

namespace {

/// Total attempts per positioned read before a read error is reported.
constexpr int kMaxReadAttempts = 3;
/// Sleep between attempts, multiplied by the attempt number.
constexpr std::chrono::microseconds kRetryBackoff{100};

Status KeyOutOfRange(uint64_t key, uint64_t capacity) {
  return Status::OutOfRange("key " + std::to_string(key) +
                            " outside file store capacity " +
                            std::to_string(capacity));
}

/// Backoff retries after a real read error (EINTR and short reads are not
/// retries — they are normal pread behavior and cost nothing).
telemetry::Counter& ReadRetries() {
  static telemetry::Counter* counter =
      telemetry::MetricsRegistry::Default().GetCounter(
          "wavebatch_file_store_read_retries_total", {},
          "FileStore pread retries after a transient read error.");
  return *counter;
}

}  // namespace

Result<std::unique_ptr<FileStore>> FileStore::Create(
    const std::string& path, const std::vector<double>& values,
    FileStoreOptions options) {
  const int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return Status::Internal("cannot create " + path + ": " +
                            std::strerror(errno));
  }
  const char* data = reinterpret_cast<const char*>(values.data());
  size_t remaining = values.size() * sizeof(double);
  size_t offset = 0;
  while (remaining > 0) {
    const ssize_t written = ::pwrite(fd, data + offset, remaining, offset);
    if (written <= 0) {
      ::close(fd);
      return Status::Internal("short write to " + path + ": " +
                              std::strerror(errno));
    }
    offset += static_cast<size_t>(written);
    remaining -= static_cast<size_t>(written);
  }
  return std::unique_ptr<FileStore>(
      new FileStore(path, fd, values.size(), options));
}

Result<std::unique_ptr<FileStore>> FileStore::Open(const std::string& path,
                                                   FileStoreOptions options) {
  const int fd = ::open(path.c_str(), O_RDWR);
  if (fd < 0) {
    return Status::NotFound("cannot open " + path + ": " +
                            std::strerror(errno));
  }
  const off_t size = ::lseek(fd, 0, SEEK_END);
  if (size < 0 || size % static_cast<off_t>(sizeof(double)) != 0) {
    ::close(fd);
    return Status::InvalidArgument(path +
                                   " is not a multiple of sizeof(double)");
  }
  return std::unique_ptr<FileStore>(new FileStore(
      path, fd, static_cast<uint64_t>(size) / sizeof(double), options));
}

FileStore::~FileStore() {
  if (fd_ >= 0) ::close(fd_);
}

double FileStore::Peek(uint64_t key) const {
  WB_CHECK_LT(key, capacity_) << "key outside file store capacity";
  double value = 0.0;
  WB_CHECK_OK(PreadFully(&value, sizeof(value), key * sizeof(double)));
  return value;
}

void FileStore::Add(uint64_t key, double delta) {
  WB_CHECK_LT(key, capacity_) << "key outside file store capacity";
  const double value = Peek(key) + delta;
  const ssize_t put = ::pwrite(fd_, &value, sizeof(value),
                               static_cast<off_t>(key * sizeof(double)));
  WB_CHECK_EQ(put, static_cast<ssize_t>(sizeof(value)))
      << "short write to " << path_;
}

void FileStore::SimulateSeek() const {
  if (options_.simulated_seek_latency.count() > 0) {
    std::this_thread::sleep_for(options_.simulated_seek_latency);
  }
}

Status FileStore::PreadFully(void* buf, size_t len, uint64_t offset) const {
  size_t filled = 0;
  int attempts = 0;
  while (filled < len) {
    const ssize_t got =
        ::pread(fd_, static_cast<char*>(buf) + filled, len - filled,
                static_cast<off_t>(offset + filled));
    if (got > 0) {
      // Short reads are normal (signals, page boundaries): keep reading
      // from where the kernel stopped. They do not consume an attempt.
      filled += static_cast<size_t>(got);
      attempts = 0;
      continue;
    }
    if (got == 0) {
      // pread at or past the end of the file. This is not a read error —
      // the file is shorter than the store's capacity claims (truncated
      // behind our back), and retrying would spin forever.
      return Status::Unavailable(
          "unexpected EOF in " + path_ + " at offset " +
          std::to_string(offset + filled) + " (wanted " +
          std::to_string(len - filled) + " more bytes; file truncated?)");
    }
    const int err = errno;
    if (err == EINTR) continue;  // interrupted before any bytes: free retry
    if (++attempts >= kMaxReadAttempts) {
      return Status::Unavailable("read error in " + path_ + " at offset " +
                                 std::to_string(offset + filled) + ": " +
                                 std::strerror(err) + " (after " +
                                 std::to_string(attempts) + " attempts)");
    }
    ReadRetries().Add();
    std::this_thread::sleep_for(kRetryBackoff * attempts);
  }
  return Status::OK();
}

namespace {
/// Keys this close (in coefficients) are folded into one read: reading a
/// few wasted doubles is cheaper than another syscall + seek.
constexpr uint64_t kMaxCoalesceGap = 8;
/// Below this batch size the pool handoff costs more than it saves.
constexpr size_t kParallelFetchThreshold = 256;
}  // namespace

Status FileStore::ReadRun(const Run& run, std::span<const uint64_t> keys,
                          std::span<const size_t> order,
                          std::span<double> out) const {
  SimulateSeek();
  const size_t count = static_cast<size_t>(run.last_key - run.first_key + 1);
  std::vector<double> buffer(count);
  Status status = PreadFully(buffer.data(), count * sizeof(double),
                             run.first_key * sizeof(double));
  if (!status.ok()) return status;
  for (size_t t = run.targets_begin; t < run.targets_end; ++t) {
    const size_t i = order[t];
    out[i] = buffer[keys[i] - run.first_key];
  }
  return Status::OK();
}

Status FileStore::DoFetchBatch(std::span<const uint64_t> keys,
                               std::span<double> out, IoStats*) const {
  if (keys.empty()) return Status::OK();
  if (keys.size() == 1) {
    if (keys[0] >= capacity_) return KeyOutOfRange(keys[0], capacity_);
    SimulateSeek();
    return PreadFully(&out[0], sizeof(double), keys[0] * sizeof(double));
  }
  // Key-sorted order turns scattered point reads into forward-moving,
  // mostly-contiguous reads that the page cache and readahead like.
  std::vector<size_t> order(keys.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&keys](size_t a, size_t b) {
    return keys[a] < keys[b];
  });
  if (keys[order.back()] >= capacity_) {
    return KeyOutOfRange(keys[order.back()], capacity_);
  }

  std::vector<Run> runs;
  for (size_t t = 0; t < order.size(); ++t) {
    const uint64_t key = keys[order[t]];
    if (runs.empty() || key > runs.back().last_key + kMaxCoalesceGap) {
      runs.push_back({key, key, t, t + 1});
    } else {
      runs.back().last_key = std::max(runs.back().last_key, key);
      runs.back().targets_end = t + 1;
    }
  }

  if (keys.size() < kParallelFetchThreshold || runs.size() == 1) {
    for (const Run& run : runs) {
      Status status = ReadRun(run, keys, order, out);
      if (!status.ok()) return status;
    }
    return Status::OK();
  }
  // Parallel path: every run is attempted; the first failure (in run order)
  // wins so the reported Status is deterministic regardless of scheduling.
  std::mutex mu;
  size_t first_bad = runs.size();
  Status first_status = Status::OK();
  ThreadPool::Shared().ParallelFor(
      runs.size(), /*grain=*/std::max<size_t>(1, runs.size() / 64),
      [&](size_t begin, size_t end) {
        for (size_t r = begin; r < end; ++r) {
          Status status = ReadRun(runs[r], keys, order, out);
          if (!status.ok()) {
            std::lock_guard<std::mutex> lock(mu);
            if (r < first_bad) {
              first_bad = r;
              first_status = std::move(status);
            }
          }
        }
      });
  return first_status;
}

uint64_t FileStore::NumNonZero() const {
  uint64_t count = 0;
  ForEachNonZero([&count](uint64_t, double) { ++count; });
  return count;
}

double FileStore::SumAbs() const {
  double acc = 0.0;
  ForEachNonZero([&acc](uint64_t, double v) { acc += std::abs(v); });
  return acc;
}

void FileStore::ForEachNonZero(
    const std::function<void(uint64_t, double)>& fn) const {
  // Sequential buffered scan (not counted as random-access I/O). Uses the
  // same short-read-tolerant reader as the fetch path: a scan crossing a
  // signal delivery or a page-cache boundary must not demand the whole
  // chunk in one pread.
  constexpr size_t kBatch = 4096;
  std::vector<double> buffer(kBatch);
  uint64_t key = 0;
  while (key < capacity_) {
    const size_t want = static_cast<size_t>(
        std::min<uint64_t>(kBatch, capacity_ - key));
    WB_CHECK_OK(
        PreadFully(buffer.data(), want * sizeof(double), key * sizeof(double)));
    for (size_t i = 0; i < want; ++i) {
      if (buffer[i] != 0.0) fn(key + i, buffer[i]);
    }
    key += want;
  }
}

}  // namespace wavebatch
