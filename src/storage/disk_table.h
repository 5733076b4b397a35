#ifndef MPFDB_STORAGE_DISK_TABLE_H_
#define MPFDB_STORAGE_DISK_TABLE_H_

#include <memory>
#include <mutex>
#include <string>

#include "storage/buffer_pool.h"
#include "storage/table.h"
#include "util/status.h"

namespace mpfdb {

// A functional relation stored in a paged file: page 0 holds the schema
// header (magic, arity, row count, measure/variable/key names), data pages
// hold packed rows. Reads go through an LRU buffer pool, so scans and random
// row accesses incur the page IO the paper's disk-resident setting assumes
// (and PageCostModel charges).
class DiskTable {
 public:
  // Serializes `table` into a new paged file at `path`.
  static Status Write(const Table& table, const std::string& path);

  // Opens a paged file written by Write, with a buffer pool of
  // `pool_pages` frames.
  static StatusOr<std::unique_ptr<DiskTable>> Open(const std::string& path,
                                                   size_t pool_pages = 64);

  const Schema& schema() const { return schema_; }
  const std::vector<std::string>& key_vars() const { return key_vars_; }
  uint64_t NumRows() const { return row_count_; }
  const std::string& name() const { return name_; }

  // Random access to row `index` through the buffer pool. ReadRow/ReadRange/
  // ReadAll are safe to call from parallel scan workers: the buffer pool and
  // its LRU bookkeeping are not thread-safe, so each read serializes on an
  // internal mutex (the page decode inside the critical section is cheap
  // relative to the IO it fronts).
  Status ReadRow(uint64_t index, std::vector<VarValue>* vars,
                 double* measure);

  // Batch readout for the batch executor: reads rows [start, start + n)
  // page by page through the buffer pool into row-major `vars_out` (n *
  // arity values) and `measures_out` (n values), touching each data page
  // once instead of once per row.
  Status ReadRange(uint64_t start, size_t n, VarValue* vars_out,
                   double* measures_out);

  // Full scan into an in-memory Table.
  StatusOr<TablePtr> ReadAll(const std::string& table_name);

  BufferPool& buffer_pool() { return *pool_; }
  PagedFile& file() { return *file_; }

 private:
  DiskTable() = default;

  std::string name_;
  Schema schema_;
  std::vector<std::string> key_vars_;
  uint64_t row_count_ = 0;
  size_t rows_per_page_ = 0;
  std::unique_ptr<PagedFile> file_;
  std::unique_ptr<BufferPool> pool_;
  std::mutex io_mu_;  // serializes buffer-pool access across scan workers
};

}  // namespace mpfdb

#endif  // MPFDB_STORAGE_DISK_TABLE_H_
