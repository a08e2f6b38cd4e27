#pragma once

// One field list per wire message. Every message of the negotiation, dist
// and snapshot families states its layout once, as a `fields(io, message)`
// walk over its members in wire order, and that one walk both writes
// (io = Encoder) and reads (io = Decoder). Each scalar primitive takes one
// field or several of the same kind, in order. The decoder range-checks
// every narrowing: a value wider than its field, a flag byte other than 0
// or 1, or a count above Reader::kMaxCount latches the reader, so the frame
// fails to decode instead of reading as a different message.

#include <algorithm>
#include <concepts>
#include <string>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "proto/frame.hpp"
#include "util/result.hpp"

namespace nexit::proto {

class Encoder {
 public:
  explicit Encoder(Writer& w) : w_(w) {}

  void u8(std::same_as<std::uint8_t> auto... v) { (w_.put_u8(v), ...); }
  void flag(bool v) { w_.put_u8(v ? 1 : 0); }
  void varint(std::unsigned_integral auto... v) { (w_.put_varint(v), ...); }
  void zigzag(std::signed_integral auto... v) { (w_.put_signed(v), ...); }
  void f64(double v) { w_.put_double(v); }
  void string(const auto&... s) { (w_.put_string(s), ...); }
  /// A count, then every element's fields through `each`.
  template <class T>
  void list(const char* /*name*/, const std::vector<T>& v, auto each) {
    w_.put_varint(v.size());
    for (const T& e : v) each(e);
  }
  /// Row r of a CSR table, `values[begin[r] .. begin[r + 1])`, as a list;
  /// the decoder appends it as the table's next row.
  template <class V>
  void row(const std::vector<std::uint32_t>& begin,
           const std::vector<V>& values, std::size_t r, auto each) {
    w_.put_varint(begin[r + 1] - begin[r]);
    for (std::size_t i = begin[r]; i < begin[r + 1]; ++i) each(values[i]);
  }

 private:
  Writer& w_;
};

class Decoder {
 public:
  explicit Decoder(Reader& r) : r_(r) {}

  void u8(std::same_as<std::uint8_t> auto&... v) { ((v = r_.get_u8()), ...); }
  void flag(bool& v) {
    const std::uint8_t b = r_.get_u8();
    if (b > 1) refuse("flag", b);
    v = b == 1;
  }
  template <std::unsigned_integral... T>
  void varint(T&... v) { ((v = fit<T>(r_.get_varint())), ...); }
  template <std::signed_integral... T>
  void zigzag(T&... v) { ((v = fit<T>(r_.get_signed())), ...); }
  void f64(double& v) { v = r_.get_double(); }
  void string(auto&... s) { ((s = r_.get_string()), ...); }
  template <class T>
  void list(const char* name, std::vector<T>& v, auto each) {
    const std::size_t n = count(name);
    if constexpr (std::is_trivially_copyable_v<T>)
      v.reserve(std::min(n, r_.remaining()));  // a byte or more each
    for (std::size_t i = 0; i < n && r_.ok(); ++i) each(v.emplace_back());
  }
  template <class V>
  void row(std::vector<std::uint32_t>& begin, std::vector<V>& values,
           std::size_t /*r*/, auto each) {
    const std::size_t n = count("row");
    if (values.empty()) values.reserve(r_.remaining());  // a byte or more each
    for (std::size_t i = 0; i < n && r_.ok(); ++i) each(values.emplace_back());
    begin.push_back(fit<std::uint32_t>(values.size()));
  }

  /// Why the walk refused the payload.
  [[nodiscard]] const std::string& why() const { return why_; }

 private:
  // The refusal is out of line, so the checks inline into every read.
  std::size_t count(const char* name) {
    const std::uint64_t n = r_.get_varint();
    if (n <= Reader::kMaxCount) [[likely]] return static_cast<std::size_t>(n);
    refuse(name, n);
    return 0;
  }
  template <class T, class V>
  T fit(V v) {
    if (std::in_range<T>(v)) [[likely]] return static_cast<T>(v);
    refuse("value", v);
    return T{};
  }
  [[gnu::cold, gnu::noinline]] void refuse(const char* what,
                                           std::integral auto v) {
    if (r_.ok()) why_ = what + (" of " + std::to_string(v)) + " out of range";
    r_.fail();
  }

  Reader& r_;
  std::string why_ = "truncated";  // unless a value was refused first
};

/// `T` as a walk sees it: const when encoding, mutable when decoding.
template <class IO, class T>
using Field = std::conditional_t<std::is_same_v<IO, Decoder>, T, const T>;

/// `m`'s fields as a frame of type byte `type` (a family's tag enum).
template <class Tag, class T>
Frame encode_fields(Tag type, const T& m) {
  Writer w;
  w.reserve(64);
  Encoder io(w);
  fields(io, m);
  return Frame{static_cast<std::uint8_t>(type), std::move(w).take()};
}

/// Reads `payload` into `m`: empty when the walk consumed it exactly, else
/// why it is malformed.
template <class T>
std::string decode_fields(const Bytes& payload, T& m) {
  Reader r(payload);
  Decoder io(r);
  fields(io, m);
  if (r.at_end()) return {};
  return r.ok() ? "trailing bytes" : io.why();
}

/// A protocol family's messages are the alternatives of one variant; each
/// one's type byte is the family's first tag plus its variant index.
template <class Variant, class Tag>
Frame encode_variant(Tag first, const Variant& message) {
  const std::size_t type = static_cast<std::size_t>(first) + message.index();
  return std::visit([&](const auto& m) { return encode_fields(type, m); },
                    message);
}

template <class Variant, class Tag>
util::Result<Variant> decode_variant(Tag first, const char* family,
                                     const Frame& frame) {
  // Wraps for a type byte below `first`.
  const std::size_t index = frame.type - static_cast<std::size_t>(first);
  if (index >= std::variant_size_v<Variant>)
    return util::make_error(std::string("unknown ") + family + " type " +
                            std::to_string(frame.type));
  Variant out;
  [&]<std::size_t... I>(std::index_sequence<I...>) {
    ((I == index ? (void)out.template emplace<I>() : void()), ...);
  }(std::make_index_sequence<std::variant_size_v<Variant>>{});
  const std::string why = std::visit(
      [&](auto& m) { return decode_fields(frame.payload, m); }, out);
  if (!why.empty())
    return util::make_error(std::string("malformed ") + family +
                            " payload (type " + std::to_string(frame.type) +
                            "): " + why);
  return out;
}

}  // namespace nexit::proto
