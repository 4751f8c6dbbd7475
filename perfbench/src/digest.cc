#include "digest.h"

#include <cstring>
#include <vector>

#include "ledger.h"

namespace perfbench {
namespace {

enum Tag : uint64_t {
  kBottom = 1, kBool, kNat, kReal, kString, kTuple, kSet, kArray, kFunc,
};

uint64_t Bits(double d) {
  uint64_t u;
  std::memcpy(&u, &d, sizeof(u));
  return u;
}

}  // namespace

void Digest::Word(uint64_t w) {
  // Two independent lanes, so a collision needs both to collide.
  a_ = Mix(a_, w);
  b_ = (b_ ^ w) * 0x100000001b3ull + (b_ >> 29);
  ++n_;
}

void Digest::Bytes(std::string_view s) {
  Word(s.size());
  size_t i = 0;
  for (; i + 8 <= s.size(); i += 8) {
    uint64_t w;
    std::memcpy(&w, s.data() + i, 8);
    Word(w);
  }
  uint64_t tail = 0;
  std::memcpy(&tail, s.data() + i, s.size() - i);
  Word(tail);
}

uint64_t Digest::value() const { return Mix(a_, b_, n_); }

void Digest::Add(const aql::Value& v) {
  using aql::ValueKind;
  switch (v.kind()) {
    case ValueKind::kBottom: Word(kBottom); return;
    case ValueKind::kBool: Word(kBool); Word(v.bool_value()); return;
    case ValueKind::kNat: Word(kNat); Word(v.nat_value()); return;
    case ValueKind::kReal: Word(kReal); Word(Bits(v.real_value())); return;
    case ValueKind::kString: Word(kString); Bytes(v.str_value()); return;
    case ValueKind::kFunc: Word(kFunc); return;
    case ValueKind::kTuple:
      Word(kTuple);
      Word(v.tuple_fields().size());
      for (const aql::Value& f : v.tuple_fields()) Add(f);
      return;
    case ValueKind::kSet:
      Word(kSet);
      Word(v.set().elems.size());
      for (const aql::Value& e : v.set().elems) Add(e);
      return;
    case ValueKind::kArray: break;
  }
  const aql::ArrayRep& a = v.array();
  Word(kArray);
  Word(a.dims.size());
  for (uint64_t d : a.dims) Word(d);
  // Element streams are payload-agnostic: an unboxed element digests as
  // its boxed counterpart would.
  using P = aql::ArrayRep::Payload;
  switch (a.payload) {
    case P::kNats:
      for (uint64_t x : a.nats) { Word(kNat); Word(x); }
      return;
    case P::kReals:
      for (double x : a.reals) { Word(kReal); Word(Bits(x)); }
      return;
    case P::kBools:
      for (uint8_t x : a.bools) { Word(kBool); Word(x != 0); }
      return;
    case P::kTiled: {
      std::vector<uint64_t> start(a.dims.size(), 0);
      std::vector<double> buf(a.TotalSize());
      if (!buf.empty() && !a.tiled->ReadInto(start, a.dims, buf.data()).ok()) {
        Word(kBottom);  // an unreadable slab cannot match a reference
        return;
      }
      for (double x : buf) { Word(kReal); Word(Bits(x)); }
      return;
    }
    case P::kBoxed:
      for (const aql::Value& e : a.elems) Add(e);
      return;
  }
}

uint64_t DigestValue(const aql::Value& v) {
  Digest d;
  d.Add(v);
  return d.value();
}

uint64_t DigestText(std::string_view text) {
  Digest d;
  d.Bytes(text);
  return d.value();
}

}  // namespace perfbench
