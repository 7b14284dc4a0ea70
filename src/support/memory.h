// Byte-addressed simulated memory shared by the IR interpreter, the
// Microblaze-like CPU model and the hardware-thread executors. Functionally
// a flat little-endian 32-bit address space; all timing (bus latency,
// write-update coherency delay) is charged by the simulator, not here.
//
// Backed by calloc rather than a value-initialized vector: a simulation run
// constructs a fresh 4 MiB space, and lazily-mapped zero pages make that
// effectively free (the bench harness runs ~100 simulations; eagerly
// zeroing each space cost more than some entire simulations).
#pragma once

#include <cstdint>
#include <cstdlib>
#include <cstring>

namespace twill {

class Memory {
public:
  explicit Memory(uint32_t size = kDefaultSize) : size_(size), bytes_(allocate(size, mmapped_)) {}
  ~Memory() { release(bytes_, size_, mmapped_); }
  Memory(const Memory&) = delete;
  Memory& operator=(const Memory&) = delete;

  uint32_t size() const { return size_; }

  /// Loads `bytes` (1, 2 or 4) little-endian, zero-extended to 32 bits.
  /// Inline with fixed-width fast paths: a load/store happens every few
  /// simulated instructions, and an out-of-line byte loop was a measurable
  /// constant on every engine.
  uint32_t load(uint32_t addr, uint32_t bytes) const {
    check(addr, bytes);
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
    if (bytes == 4) {
      uint32_t v;
      std::memcpy(&v, bytes_ + addr, 4);
      return v;
    }
    if (bytes == 2) {
      uint16_t v;
      std::memcpy(&v, bytes_ + addr, 2);
      return v;
    }
    if (bytes == 1) return bytes_[addr];
#endif
    uint32_t v = 0;
    for (uint32_t i = 0; i < bytes; ++i) v |= static_cast<uint32_t>(bytes_[addr + i]) << (8 * i);
    return v;
  }
  /// Stores the low `bytes` of `value` little-endian.
  void store(uint32_t addr, uint32_t bytes, uint32_t value) {
    check(addr, bytes);
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
    if (bytes == 4) {
      std::memcpy(bytes_ + addr, &value, 4);
      return;
    }
    if (bytes == 2) {
      const uint16_t v = static_cast<uint16_t>(value);
      std::memcpy(bytes_ + addr, &v, 2);
      return;
    }
    if (bytes == 1) {
      bytes_[addr] = static_cast<uint8_t>(value);
      return;
    }
#endif
    for (uint32_t i = 0; i < bytes; ++i) bytes_[addr + i] = static_cast<uint8_t>(value >> (8 * i));
  }

  /// True when [addr, addr+len) lies inside the address space. The
  /// execution engines test this before every program-driven load/store so
  /// an out-of-range access from untrusted source traps instead of aborting
  /// (check() below stays an abort: reaching it means an engine bug).
  bool inRange(uint32_t addr, uint32_t len) const { return addr <= size_ && len <= size_ - addr; }

  /// Bulk access for loading program data (global initializers).
  void write(uint32_t addr, const void* src, uint32_t len);
  void read(uint32_t addr, void* dst, uint32_t len) const;

  void clear() { std::memset(bytes_, 0, size_); }

  static constexpr uint32_t kDefaultSize = 4u << 20;  // 4 MiB

private:
  static uint8_t* allocate(uint32_t size, bool& mmapped);
  static void release(uint8_t* p, uint32_t size, bool mmapped);
  [[noreturn]] static void outOfRange(uint32_t addr, uint32_t len, uint32_t size);
  void check(uint32_t addr, uint32_t len) const {
    // Out-of-range access indicates a compiler or benchmark bug; abort
    // loudly rather than silently corrupting the simulation.
    if (addr > size_ || len > size_ - addr) outOfRange(addr, len, size_);
  }

  uint32_t size_;
  bool mmapped_ = false;
  uint8_t* bytes_;
};

}  // namespace twill
