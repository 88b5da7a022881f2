// Virtual Output Queues — the buffering stage of the processing logic.
//
// An N-port input-queued switch keeps, at each input, one FIFO per output
// ("VOQ") so that a blocked head-of-line packet for one output never stalls
// traffic to another.  The bank tracks byte/packet occupancy exactly and
// records *peak* occupancy, which is the quantity Figure 1 of the paper is
// about: the peak decides whether buffers fit in a ToR switch (kilobytes,
// fast scheduling) or must live in the hosts (gigabytes, slow scheduling).
//
// Storage.  All packets of a bank live in one pool of list nodes, each a
// packet plus an 8-B link; a VOQ is a 32-B header (head, tail, bytes,
// packets) and reserves nothing, because a 128x128 bank has 16,384 VOQs and
// even an 8-packet ring each would reserve ~14 MiB.  Freed nodes are
// recycled LIFO.  The pool starts empty and grows in chunks that double from
// 32 to 4096 nodes, so a small bank costs little to build while a bank
// holding hundreds of thousands of packets pays ~8 B per resident packet
// beyond the packet and never copies one to grow.  Nodes are kept until the
// bank is destroyed, so its memory is that of its peak occupancy.
#ifndef XDRS_QUEUEING_VOQ_HPP
#define XDRS_QUEUEING_VOQ_HPP

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "net/packet.hpp"

namespace xdrs::queueing {

/// Buffer-admission limits.  A value of 0 means "unlimited".
struct VoqLimits {
  std::int64_t max_bytes_per_voq{0};
  std::int64_t max_packets_per_voq{0};
  std::int64_t shared_buffer_bytes{0};  ///< across all VOQs of the bank
};

/// VOQ status transitions reported to the request generator.
enum class VoqStatus : std::uint8_t {
  kBecameNonEmpty,  ///< 0 -> >0 packets: emit a scheduling request
  kBecameEmpty,     ///< >0 -> 0 packets: demand for this pair vanished
};

/// Drop/occupancy counters for one bank.
struct VoqBankStats {
  std::uint64_t enqueued_packets{0};
  std::uint64_t dequeued_packets{0};
  std::uint64_t dropped_packets{0};
  std::int64_t dropped_bytes{0};
  std::int64_t peak_total_bytes{0};
};

/// A bank of `inputs x outputs` VOQs with exact occupancy accounting.
class VoqBank {
 public:
  using StatusCallback = std::function<void(net::PortId input, net::PortId output, VoqStatus)>;

  VoqBank(std::uint32_t inputs, std::uint32_t outputs, VoqLimits limits = {});

  [[nodiscard]] std::uint32_t inputs() const noexcept { return inputs_; }
  [[nodiscard]] std::uint32_t outputs() const noexcept { return outputs_; }

  /// Invoked on kBecameNonEmpty / kBecameEmpty transitions.
  void set_status_callback(StatusCallback cb) { status_cb_ = std::move(cb); }

  /// Admits `p` to VOQ(input, p.dst).  Returns false (and counts a drop)
  /// when an admission limit would be exceeded.
  bool enqueue(net::PortId input, const net::Packet& p);

  /// Removes the head-of-line packet of VOQ(input, output), if any.
  std::optional<net::Packet> dequeue(net::PortId input, net::PortId output);

  /// Head-of-line packet without removal.
  [[nodiscard]] const net::Packet* peek(net::PortId input, net::PortId output) const;

  [[nodiscard]] std::int64_t bytes(net::PortId input, net::PortId output) const;
  [[nodiscard]] std::size_t packets(net::PortId input, net::PortId output) const;
  [[nodiscard]] bool empty(net::PortId input, net::PortId output) const;

  /// Occupancy across all VOQs sharing input `input` (a host's buffer in
  /// host-buffered mode).
  [[nodiscard]] std::int64_t input_bytes(net::PortId input) const;
  [[nodiscard]] std::int64_t peak_input_bytes(net::PortId input) const;

  /// Whole-bank occupancy (the ToR buffer in switch-buffered mode).
  [[nodiscard]] std::int64_t total_bytes() const noexcept { return total_bytes_; }
  [[nodiscard]] std::int64_t total_packets() const noexcept { return total_packets_; }

  [[nodiscard]] const VoqBankStats& stats() const noexcept { return stats_; }

  /// Longest queue (bytes) over the whole bank; used by max-weight tests.
  [[nodiscard]] std::int64_t max_voq_bytes() const;

  /// Resets peak-occupancy water marks (not the queues themselves); used to
  /// measure steady-state peaks after warm-up.
  void reset_peaks() noexcept;

 private:
  struct Node {
    net::Packet packet;
    Node* next;
  };
  struct Voq {
    Node* head{nullptr};
    Node* tail{nullptr};
    std::int64_t bytes{0};
    std::size_t packets{0};
  };
  struct ChunkFree {
    void operator()(Node* chunk) const noexcept { ::operator delete(chunk); }
  };

  [[nodiscard]] Voq& voq(net::PortId input, net::PortId output);
  [[nodiscard]] const Voq& voq(net::PortId input, net::PortId output) const;
  void check_ports(net::PortId input, net::PortId output) const;
  /// A node holding a copy of `p`, from the free list or the pool's newest
  /// chunk, which grows when exhausted.
  [[nodiscard]] Node* make_node(const net::Packet& p);

  std::uint32_t inputs_;
  std::uint32_t outputs_;
  VoqLimits limits_;
  std::vector<Voq> voqs_;                   // row-major [input][output]
  std::vector<std::int64_t> input_bytes_;   // per-input occupancy
  std::vector<std::int64_t> input_peaks_;   // per-input high-water mark
  std::int64_t total_bytes_{0};
  std::int64_t total_packets_{0};
  VoqBankStats stats_;
  StatusCallback status_cb_;

  // Node pool.  Chunk memory is raw until a node is first handed out.
  std::vector<std::unique_ptr<Node, ChunkFree>> chunks_;
  Node* free_nodes_{nullptr};
  Node* unused_{nullptr};  // next never-used node of the newest chunk
  Node* unused_end_{nullptr};
};

}  // namespace xdrs::queueing

#endif  // XDRS_QUEUEING_VOQ_HPP
