// The CRC-32 kernels behind Crc32 (src/snapshot/snapshot_io.h), declared for
// tests that check each one against a byte-at-a-time reference.
//
// Crc32 folds 64-byte blocks with PCLMULQDQ when the CPU has it (x86 with
// PCLMUL and SSE4.1, detected once at run time) and finishes the last
// size % 16 bytes with the slicing-by-8 table loop; elsewhere the table loop
// does every byte. Both give the same CRC for every input.

#ifndef SRC_SNAPSHOT_CRC32_INTERNAL_H_
#define SRC_SNAPSHOT_CRC32_INTERNAL_H_

#include <cstddef>
#include <cstdint>

namespace threesigma {

// Crc32 by the table loop alone, whatever the CPU.
uint32_t Crc32Table(const void* data, size_t size, uint32_t seed = 0);

}  // namespace threesigma

#endif  // SRC_SNAPSHOT_CRC32_INTERNAL_H_
