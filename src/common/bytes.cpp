#include "common/bytes.hpp"

#include <cstring>
#include <stdexcept>

namespace p2panon {

namespace {
constexpr char kHexDigits[] = "0123456789abcdef";

int hex_nibble(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}
}  // namespace

std::string to_hex(ByteView data) {
  std::string out;
  out.reserve(data.size() * 2);
  for (std::uint8_t b : data) {
    out.push_back(kHexDigits[b >> 4]);
    out.push_back(kHexDigits[b & 0x0f]);
  }
  return out;
}

Bytes from_hex(std::string_view hex) {
  if (hex.size() % 2 != 0) {
    throw std::invalid_argument("from_hex: odd-length input");
  }
  Bytes out;
  out.reserve(hex.size() / 2);
  for (std::size_t i = 0; i < hex.size(); i += 2) {
    const int hi = hex_nibble(hex[i]);
    const int lo = hex_nibble(hex[i + 1]);
    if (hi < 0 || lo < 0) {
      throw std::invalid_argument("from_hex: non-hex character");
    }
    out.push_back(static_cast<std::uint8_t>((hi << 4) | lo));
  }
  return out;
}

Bytes bytes_of(std::string_view s) {
  return Bytes(s.begin(), s.end());
}

std::string string_of(ByteView data) {
  return std::string(data.begin(), data.end());
}

void append(Bytes& dst, ByteView src) {
  dst.insert(dst.end(), src.begin(), src.end());
}

Bytes concat(std::initializer_list<ByteView> parts) {
  std::size_t total = 0;
  for (const auto& p : parts) total += p.size();
  Bytes out;
  out.reserve(total);
  for (const auto& p : parts) append(out, p);
  return out;
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
