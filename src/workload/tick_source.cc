#include "workload/tick_source.h"

#include <utility>

namespace polydab::workload {

Result<bool> TraceSetTickSource::Next(Vector* row) {
  if (tick_ >= set_->num_ticks) return false;
  const size_t n = set_->num_items();
  row->resize(n);
  for (size_t i = 0; i < n; ++i) (*row)[i] = set_->ValueAt(i, tick_);
  ++tick_;
  return true;
}

Result<std::unique_ptr<FileTickSource>> FileTickSource::Open(
    const std::string& path) {
  std::ifstream stream(path);
  if (!stream) {
    return Status::InvalidArgument("cannot open tick stream: " + path);
  }
  std::unique_ptr<FileTickSource> src(
      new FileTickSource(std::move(stream), path));
  POLYDAB_RETURN_NOT_OK(src->Rewind());
  return src;
}

Result<bool> FileTickSource::ReadRow(Vector* row) {
  std::string line;
  while (std::getline(stream_, line)) {
    POLYDAB_ASSIGN_OR_RETURN(const bool data,
                             rows_.Parse(line, ++line_no_, row));
    if (data) return true;
  }
  if (stream_.bad()) {
    return Status::Internal("read error on tick stream: " + path_);
  }
  return false;
}

Result<bool> FileTickSource::Next(Vector* row) {
  if (pending_first_) {
    pending_first_ = false;
    *row = first_row_;
    return true;
  }
  return ReadRow(row);
}

Status FileTickSource::Rewind() {
  stream_.clear();
  stream_.seekg(0);
  if (!stream_) {
    return Status::Internal("cannot rewind tick stream: " + path_);
  }
  rows_ = TraceCsvRows();
  line_no_ = 0;
  // Read the first data row ahead: it fixes num_items, which must not
  // change across rewinds even if the file changed under us.
  POLYDAB_ASSIGN_OR_RETURN(const bool data, ReadRow(&first_row_));
  if (!data) {
    return Status::InvalidArgument("tick stream has no data rows: " + path_);
  }
  if (num_items_ != 0 && rows_.width() != num_items_) {
    return Status::Internal("tick stream changed width on rewind: " + path_);
  }
  num_items_ = rows_.width();
  pending_first_ = true;
  return Status::OK();
}

}  // namespace polydab::workload
