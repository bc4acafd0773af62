#include "common/bytes.hpp"

#include <cstring>
#include <stdexcept>

namespace p2panon {

Bytes bytes_of(std::string_view s) {
  return Bytes(s.begin(), s.end());
}

std::string string_of(ByteView data) {
  return std::string(data.begin(), data.end());
}

void append(Bytes& dst, ByteView src) {
  dst.insert(dst.end(), src.begin(), src.end());
}

bool constant_time_equal(ByteView a, ByteView b) {
  if (a.size() != b.size()) return false;
  std::uint8_t acc = 0;
  for (std::size_t i = 0; i < a.size(); ++i) acc |= a[i] ^ b[i];
  return acc == 0;
}

void put_u16be(Bytes& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v));
}

void put_u32be(Bytes& out, std::uint32_t v) {
  out.push_back(static_cast<std::uint8_t>(v >> 24));
  out.push_back(static_cast<std::uint8_t>(v >> 16));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v));
}

void put_u64be(Bytes& out, std::uint64_t v) {
  put_u32be(out, static_cast<std::uint32_t>(v >> 32));
  put_u32be(out, static_cast<std::uint32_t>(v));
}

namespace {
void check_range(ByteView in, std::size_t offset, std::size_t n) {
  if (offset + n > in.size()) {
    throw std::out_of_range("byte read past end of buffer");
  }
}
}  // namespace

std::uint16_t get_u16be(ByteView in, std::size_t offset) {
  check_range(in, offset, 2);
  return load_u16be(in.data() + offset);
}

std::uint32_t get_u32be(ByteView in, std::size_t offset) {
  check_range(in, offset, 4);
  return load_u32be(in.data() + offset);
}

std::uint64_t get_u64be(ByteView in, std::size_t offset) {
  check_range(in, offset, 8);
  return load_u64be(in.data() + offset);
}

void secure_wipe(MutableByteView buf) {
  volatile std::uint8_t* p = buf.data();
  for (std::size_t i = 0; i < buf.size(); ++i) p[i] = 0;
}

}  // namespace p2panon
