// Bitwise digests of query results, for the correctness oracle.
//
// Two values digest equal exactly when they are the same abstract value
// bit for bit: kinds, nat values, the IEEE bit pattern of every real
// (so -0.0, NaN payloads and rounding differences all show), string
// bytes, set order, array dimensions, and where each ⊥ hole sits. The
// array payload (boxed or unboxed) does not enter the digest, because
// the representation is not part of the value. Text digests cover the
// bytes of a rendered response.

#ifndef PERFBENCH_DIGEST_H_
#define PERFBENCH_DIGEST_H_

#include <cstdint>
#include <string_view>

#include "object/value.h"

namespace perfbench {

class Digest {
 public:
  void Word(uint64_t w);
  void Bytes(std::string_view s);
  void Add(const aql::Value& v);
  uint64_t value() const;

 private:
  uint64_t a_ = 0x6a09e667f3bcc908ull;
  uint64_t b_ = 0xbb67ae8584caa73bull;
  uint64_t n_ = 0;
};

uint64_t DigestValue(const aql::Value& v);
uint64_t DigestText(std::string_view text);

}  // namespace perfbench

#endif  // PERFBENCH_DIGEST_H_
