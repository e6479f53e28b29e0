#include "tensor/serialize.h"

#include <array>
#include <cstring>

namespace sgnn::serialize {

namespace {

/// Reflected CRC-32 lookup table, built once from the IEEE polynomial.
const std::array<uint32_t, 256>& CrcTable() {
  static const std::array<uint32_t, 256> table = [] {
    std::array<uint32_t, 256> t{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  return table;
}

}  // namespace

uint32_t Crc32(const void* data, size_t size, uint32_t seed) {
  const auto* p = static_cast<const uint8_t*>(data);
  uint32_t c = seed ^ 0xFFFFFFFFu;
  const auto& table = CrcTable();
  for (size_t i = 0; i < size; ++i) {
    c = table[(c ^ p[i]) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

void Writer::PutU8(uint8_t v) { buf_.push_back(static_cast<char>(v)); }

void Writer::PutU16(uint16_t v) {
  buf_.push_back(static_cast<char>(v & 0xFFu));
  buf_.push_back(static_cast<char>((v >> 8) & 0xFFu));
}

void Writer::PutU32(uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    buf_.push_back(static_cast<char>((v >> (8 * i)) & 0xFFu));
  }
}

void Writer::PutU64(uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    buf_.push_back(static_cast<char>((v >> (8 * i)) & 0xFFu));
  }
}

void Writer::PutI32(int32_t v) { PutU32(static_cast<uint32_t>(v)); }
void Writer::PutI64(int64_t v) { PutU64(static_cast<uint64_t>(v)); }

void Writer::PutF32(float v) {
  uint32_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  PutU32(bits);
}

void Writer::PutF64(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(bits);
}

void Writer::PutStr(const std::string& s) {
  PutU32(static_cast<uint32_t>(s.size()));
  buf_.append(s);
}

void Writer::PutBytes(const void* data, size_t size) {
  buf_.append(static_cast<const char*>(data), size);
}

Status Reader::Take(size_t n, const uint8_t** out) {
  if (size_ - pos_ < n) {
    return Status::IOError("truncated input: need " + std::to_string(n) +
                           " bytes at offset " + std::to_string(pos_) +
                           ", have " + std::to_string(size_ - pos_));
  }
  *out = data_ + pos_;
  pos_ += n;
  return Status::OK();
}

Status Reader::U8(uint8_t* v) {
  const uint8_t* p = nullptr;
  SGNN_RETURN_IF_ERROR(Take(1, &p));
  *v = p[0];
  return Status::OK();
}

Status Reader::U16(uint16_t* v) {
  const uint8_t* p = nullptr;
  SGNN_RETURN_IF_ERROR(Take(2, &p));
  *v = static_cast<uint16_t>(static_cast<uint16_t>(p[0]) |
                             (static_cast<uint16_t>(p[1]) << 8));
  return Status::OK();
}

Status Reader::U32(uint32_t* v) {
  const uint8_t* p = nullptr;
  SGNN_RETURN_IF_ERROR(Take(4, &p));
  *v = 0;
  for (int i = 0; i < 4; ++i) *v |= static_cast<uint32_t>(p[i]) << (8 * i);
  return Status::OK();
}

Status Reader::U64(uint64_t* v) {
  const uint8_t* p = nullptr;
  SGNN_RETURN_IF_ERROR(Take(8, &p));
  *v = 0;
  for (int i = 0; i < 8; ++i) *v |= static_cast<uint64_t>(p[i]) << (8 * i);
  return Status::OK();
}

Status Reader::I32(int32_t* v) {
  uint32_t u = 0;
  SGNN_RETURN_IF_ERROR(U32(&u));
  *v = static_cast<int32_t>(u);
  return Status::OK();
}

Status Reader::I64(int64_t* v) {
  uint64_t u = 0;
  SGNN_RETURN_IF_ERROR(U64(&u));
  *v = static_cast<int64_t>(u);
  return Status::OK();
}

Status Reader::F32(float* v) {
  uint32_t bits = 0;
  SGNN_RETURN_IF_ERROR(U32(&bits));
  std::memcpy(v, &bits, sizeof(*v));
  return Status::OK();
}

Status Reader::F64(double* v) {
  uint64_t bits = 0;
  SGNN_RETURN_IF_ERROR(U64(&bits));
  std::memcpy(v, &bits, sizeof(*v));
  return Status::OK();
}

Status Reader::Str(std::string* s, uint32_t max_len) {
  uint32_t len = 0;
  SGNN_RETURN_IF_ERROR(U32(&len));
  if (len > max_len) {
    return Status::IOError("string length " + std::to_string(len) +
                           " exceeds limit " + std::to_string(max_len));
  }
  const uint8_t* p = nullptr;
  SGNN_RETURN_IF_ERROR(Take(len, &p));
  s->assign(reinterpret_cast<const char*>(p), len);
  return Status::OK();
}

Status Reader::Raw(void* out, size_t size) {
  const uint8_t* p = nullptr;
  SGNN_RETURN_IF_ERROR(Take(size, &p));
  std::memcpy(out, p, size);
  return Status::OK();
}

void AppendMatrix(const Matrix& m, Writer* w) {
  w->PutI64(m.rows());
  w->PutI64(m.cols());
  const float* d = m.data();
  for (int64_t i = 0; i < m.size(); ++i) w->PutF32(d[i]);
}

Status ReadMatrix(Reader* r, Device device, Matrix* out, int64_t max_elems) {
  int64_t rows = 0, cols = 0;
  SGNN_RETURN_IF_ERROR(r->I64(&rows));
  SGNN_RETURN_IF_ERROR(r->I64(&cols));
  if (rows < 0 || cols < 0 || (cols > 0 && rows > max_elems / cols)) {
    return Status::IOError("corrupt matrix shape " + std::to_string(rows) +
                           "x" + std::to_string(cols));
  }
  // Each element is 4 payload bytes: a shape promising more than the
  // remaining bytes is corrupt, and is rejected before it is allocated.
  if (static_cast<uint64_t>(rows) * static_cast<uint64_t>(cols) >
      r->remaining() / sizeof(float)) {
    return Status::IOError("matrix shape " + std::to_string(rows) + "x" +
                           std::to_string(cols) + " larger than payload");
  }
  Matrix m(rows, cols, device);
  float* d = m.data();
  for (int64_t i = 0; i < m.size(); ++i) {
    SGNN_RETURN_IF_ERROR(r->F32(&d[i]));
  }
  *out = std::move(m);
  return Status::OK();
}

}  // namespace sgnn::serialize
