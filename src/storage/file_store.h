#ifndef WAVEBATCH_STORAGE_FILE_STORE_H_
#define WAVEBATCH_STORAGE_FILE_STORE_H_

#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "storage/coefficient_store.h"
#include "util/status.h"

namespace wavebatch {

/// Knobs for the counted read path.
struct FileStoreOptions {
  /// Latency injected before every positioned read on the *counted* path
  /// (one per one-key read, one per coalesced run of a batch), modeling the
  /// seek/queue delay of the device behind this store. 0 (the default)
  /// injects nothing. The sharded bench uses this to model one independent
  /// device per shard: concurrent shards overlap their seeks, which is
  /// precisely the latency sharding buys on real hardware. Peek and the
  /// sequential scans stay latency-free (they are the uncounted paths).
  std::chrono::microseconds simulated_seek_latency{0};
};

/// A coefficient store backed by a binary file on disk — the paper's
/// "stored with reasonable random-access cost" made literal. The file is a
/// flat array of little-endian doubles indexed by key; Peek and a one-key
/// read issue a positioned read (pread) per coefficient, Add a
/// read-modify-write.
///
/// FetchBatch is where this backend earns its keep: keys are sorted, runs
/// of nearby keys are coalesced into single positioned reads, and large
/// batches spread their reads across the shared ThreadPool (pread is
/// thread-safe on one descriptor). Retrievals are still counted per
/// coefficient — coalescing changes syscalls, not the paper's cost model.
///
/// The counted path (Fetch/FetchBatch) is fault-tolerant: read errors
/// (EAGAIN, and flaky-media errno like EIO) are retried with linear backoff
/// (kMaxReadAttempts in file_store.cc) before the fetch gives up; EINTR and
/// short reads are not failures at all (the read simply continues where it
/// stopped). Unexpected EOF, exhausted retries, and out-of-capacity keys
/// come back as a non-OK Status. Peek remains the trusted uncounted path
/// and aborts on corruption.
///
/// This is the reference implementation for measuring real random-access
/// behavior; production deployments would add a buffer pool (compose with
/// BlockStore for the simulated version).
class FileStore : public CoefficientStore {
 public:
  /// Creates (truncates) `path` holding `values` and opens a store on it.
  static Result<std::unique_ptr<FileStore>> Create(
      const std::string& path, const std::vector<double>& values,
      FileStoreOptions options = FileStoreOptions());

  /// Opens an existing store file; capacity is derived from the file size
  /// (must be a multiple of sizeof(double)).
  static Result<std::unique_ptr<FileStore>> Open(
      const std::string& path, FileStoreOptions options = FileStoreOptions());

  ~FileStore() override;

  FileStore(const FileStore&) = delete;
  FileStore& operator=(const FileStore&) = delete;

  double Peek(uint64_t key) const override;
  void Add(uint64_t key, double delta) override;
  uint64_t NumNonZero() const override;
  double SumAbs() const override;
  void ForEachNonZero(
      const std::function<void(uint64_t, double)>& fn) const override;
  std::string name() const override { return "file"; }

  uint64_t capacity() const { return capacity_; }
  const std::string& path() const { return path_; }

 protected:
  /// A one-key batch (every scalar Fetch) reads in place: no sort, run
  /// list or buffer.
  Status DoFetchBatch(std::span<const uint64_t> keys, std::span<double> out,
                      IoStats* io) const override;

 private:
  /// One coalesced read covering file keys [first_key, last_key]; `targets`
  /// lists (key, out index) pairs to scatter from the read buffer.
  struct Run {
    uint64_t first_key;
    uint64_t last_key;
    size_t targets_begin;  // range into the batch's key-sorted index order
    size_t targets_end;
  };

  /// Reads exactly `len` bytes at `offset`, looping on short reads and
  /// retrying transient errors up to kMaxReadAttempts times. Distinguishes
  /// unexpected EOF (pread returning 0) from read errors in the Status
  /// message.
  Status PreadFully(void* buf, size_t len, uint64_t offset) const;

  /// Sleeps options_.simulated_seek_latency (no-op at the 0 default).
  void SimulateSeek() const;

  /// Reads `run` with one coalesced positioned read and scatters into `out`
  /// via `order` (indices into keys/out, sorted by key).
  Status ReadRun(const Run& run, std::span<const uint64_t> keys,
                 std::span<const size_t> order, std::span<double> out) const;

  FileStore(std::string path, int fd, uint64_t capacity,
            FileStoreOptions options)
      : path_(std::move(path)),
        fd_(fd),
        capacity_(capacity),
        options_(options) {}

  std::string path_;
  int fd_;
  uint64_t capacity_;
  FileStoreOptions options_;
};

}  // namespace wavebatch

#endif  // WAVEBATCH_STORAGE_FILE_STORE_H_
