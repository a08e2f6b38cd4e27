#pragma once

#include <cstdint>
#include <span>
#include <variant>
#include <vector>

#include "proto/frame.hpp"
#include "util/result.hpp"

namespace nexit::proto {

/// Message types of the Nexit negotiation protocol (§4 made concrete).
/// Session flow:
///   HELLO both ways (parameter agreement) ->
///   CANDIDATES both ways (interconnections on the table) ->
///   FLOW_ANNOUNCE both ways (the flows; §6 uses prefix signatures) ->
///   PREF_ADVERT both ways ->
///   rounds of PROPOSE/RESPONSE, PREF_ADVERT(reassignment=true) in between ->
///   STOP -> BYE.
enum class MessageType : std::uint8_t {
  kHello = 1,
  kCandidates = 2,
  kFlowAnnounce = 3,
  kPrefAdvert = 4,
  kPropose = 5,
  kResponse = 6,
  kStop = 7,
  kBye = 8,
  kRollback = 9,
};

/// Session parameters; both sides must advertise identical values for the
/// contractual fields (range, policies, quantum, seed) or the session fails.
struct Hello {
  std::uint32_t asn = 0;
  std::int32_t pref_range = 10;
  bool wants_reassignment = false;
  double reassign_fraction = 0.0;
  std::uint8_t turn_policy = 0;
  std::uint8_t proposal_policy = 0;
  std::uint8_t acceptance_policy = 0;
  std::uint8_t termination_policy = 0;
  bool settlement_rollback = true;

  friend bool operator==(const Hello&, const Hello&) = default;
};

struct Candidates {
  std::vector<std::uint32_t> interconnection_ids;
  friend bool operator==(const Candidates&, const Candidates&) = default;
};

struct FlowAnnounce {
  struct Item {
    std::uint32_t flow_id = 0;
    std::uint32_t default_interconnection = 0;
    double size = 0.0;
    friend bool operator==(const Item&, const Item&) = default;
  };
  std::vector<Item> flows;
  friend bool operator==(const FlowAnnounce&, const FlowAnnounce&) = default;
};

/// One disclosed preference row per flow, stored CSR (compressed sparse
/// row): row r is flow `flow_ids[r]` with classes
/// `classes[row_begin[r] .. row_begin[r + 1])`. Rows are length-prefixed on
/// the wire, so a ragged advert decodes as one and the receiver rejects it.
struct PrefAdvert {
  bool reassignment = false;  // true when updating mid-session
  std::vector<std::uint32_t> flow_ids;
  std::vector<std::uint32_t> row_begin{0};  // rows() + 1 offsets into classes
  std::vector<std::int32_t> classes;

  [[nodiscard]] std::size_t rows() const { return flow_ids.size(); }
  [[nodiscard]] std::span<const std::int32_t> row(std::size_t r) const {
    return std::span<const std::int32_t>(classes).subspan(
        row_begin[r], row_begin[r + 1] - row_begin[r]);
  }
  void add_row(std::uint32_t flow_id, std::span<const std::int32_t> prefs) {
    flow_ids.push_back(flow_id);
    classes.insert(classes.end(), prefs.begin(), prefs.end());
    row_begin.push_back(static_cast<std::uint32_t>(classes.size()));
  }
  friend bool operator==(const PrefAdvert&, const PrefAdvert&) = default;
};

struct Propose {
  std::uint32_t seq = 0;
  std::uint32_t flow_id = 0;
  std::uint32_t interconnection_id = 0;
  friend bool operator==(const Propose&, const Propose&) = default;
};

struct Response {
  std::uint32_t seq = 0;
  bool accepted = true;
  friend bool operator==(const Response&, const Response&) = default;
};

struct Stop {
  /// core::StopReason's last value; decoding refuses a larger reason.
  static constexpr std::uint8_t kMaxReason = 4;
  std::uint8_t reason = 0;  // mirrors core::StopReason
  friend bool operator==(const Stop&, const Stop&) = default;
};

struct Bye {
  friend bool operator==(const Bye&, const Bye&) = default;
};

/// §6 settlement: the sender has returned these flows to their defaults,
/// rolling back compromises it made. Sides alternate (possibly empty) lists
/// after STOP until two consecutive empties, then BYE.
struct Rollback {
  std::vector<std::uint32_t> flow_ids;
  friend bool operator==(const Rollback&, const Rollback&) = default;
};

using Message = std::variant<Hello, Candidates, FlowAnnounce, PrefAdvert,
                             Propose, Response, Stop, Bye, Rollback>;

/// Serialises a message into a frame (type byte + payload).
Frame encode_message(const Message& message);

/// Parses a frame back into a message; malformed payloads are an error, not
/// an exception (remote input is untrusted).
util::Result<Message> decode_message(const Frame& frame);

}  // namespace nexit::proto
