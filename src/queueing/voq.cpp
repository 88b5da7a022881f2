#include "queueing/voq.hpp"

#include <algorithm>
#include <new>
#include <stdexcept>
#include <type_traits>

namespace xdrs::queueing {
namespace {

constexpr std::size_t kFirstChunkNodes = 32;
constexpr std::size_t kMaxChunkDoublings = 7;  // chunks stop growing at 4096 nodes

}  // namespace

// Chunks are freed without running node destructors.
static_assert(std::is_trivially_destructible_v<net::Packet>);

VoqBank::VoqBank(std::uint32_t inputs, std::uint32_t outputs, VoqLimits limits)
    : inputs_{inputs},
      outputs_{outputs},
      limits_{limits},
      voqs_(static_cast<std::size_t>(inputs) * outputs),
      input_bytes_(inputs, 0),
      input_peaks_(inputs, 0) {
  if (inputs == 0 || outputs == 0) {
    throw std::invalid_argument{"VoqBank: ports must be >= 1"};
  }
}

VoqBank::Voq& VoqBank::voq(net::PortId input, net::PortId output) {
  return voqs_[static_cast<std::size_t>(input) * outputs_ + output];
}

const VoqBank::Voq& VoqBank::voq(net::PortId input, net::PortId output) const {
  return voqs_[static_cast<std::size_t>(input) * outputs_ + output];
}

VoqBank::Node* VoqBank::make_node(const net::Packet& p) {
  if (free_nodes_ != nullptr) {
    Node* n = free_nodes_;
    free_nodes_ = n->next;
    n->packet = p;
    n->next = nullptr;
    return n;
  }
  if (unused_ == unused_end_) {
    const std::size_t nodes = kFirstChunkNodes << std::min(chunks_.size(), kMaxChunkDoublings);
    std::unique_ptr<Node, ChunkFree> chunk{
        static_cast<Node*>(::operator new(nodes * sizeof(Node)))};
    chunks_.push_back(std::move(chunk));
    unused_ = chunks_.back().get();
    unused_end_ = unused_ + nodes;
  }
  return ::new (static_cast<void*>(unused_++)) Node{p, nullptr};
}

void VoqBank::check_ports(net::PortId input, net::PortId output) const {
  if (input >= inputs_ || output >= outputs_) {
    throw std::out_of_range{"VoqBank: port index out of range"};
  }
}

bool VoqBank::enqueue(net::PortId input, const net::Packet& p) {
  check_ports(input, p.dst);
  Voq& q = voq(input, p.dst);

  const bool over_voq_bytes =
      limits_.max_bytes_per_voq > 0 && q.bytes + p.size_bytes > limits_.max_bytes_per_voq;
  const bool over_voq_packets =
      limits_.max_packets_per_voq > 0 &&
      static_cast<std::int64_t>(q.packets) + 1 > limits_.max_packets_per_voq;
  const bool over_shared =
      limits_.shared_buffer_bytes > 0 && total_bytes_ + p.size_bytes > limits_.shared_buffer_bytes;
  if (over_voq_bytes || over_voq_packets || over_shared) {
    ++stats_.dropped_packets;
    stats_.dropped_bytes += p.size_bytes;
    return false;
  }

  Node* n = make_node(p);
  const bool was_empty = q.head == nullptr;
  if (was_empty) {
    q.head = n;
  } else {
    q.tail->next = n;
  }
  q.tail = n;
  ++q.packets;
  q.bytes += p.size_bytes;
  input_bytes_[input] += p.size_bytes;
  input_peaks_[input] = std::max(input_peaks_[input], input_bytes_[input]);
  total_bytes_ += p.size_bytes;
  ++total_packets_;
  stats_.peak_total_bytes = std::max(stats_.peak_total_bytes, total_bytes_);
  ++stats_.enqueued_packets;

  if (was_empty && status_cb_) status_cb_(input, p.dst, VoqStatus::kBecameNonEmpty);
  return true;
}

std::optional<net::Packet> VoqBank::dequeue(net::PortId input, net::PortId output) {
  check_ports(input, output);
  Voq& q = voq(input, output);
  Node* n = q.head;
  if (n == nullptr) return std::nullopt;

  const net::Packet p = n->packet;
  q.head = n->next;
  if (q.head == nullptr) q.tail = nullptr;
  --q.packets;
  q.bytes -= p.size_bytes;
  n->next = free_nodes_;
  free_nodes_ = n;
  input_bytes_[input] -= p.size_bytes;
  total_bytes_ -= p.size_bytes;
  --total_packets_;
  ++stats_.dequeued_packets;

  if (q.head == nullptr && status_cb_) status_cb_(input, output, VoqStatus::kBecameEmpty);
  return p;
}

const net::Packet* VoqBank::peek(net::PortId input, net::PortId output) const {
  check_ports(input, output);
  const Node* head = voq(input, output).head;
  return head == nullptr ? nullptr : &head->packet;
}

std::int64_t VoqBank::bytes(net::PortId input, net::PortId output) const {
  check_ports(input, output);
  return voq(input, output).bytes;
}

std::size_t VoqBank::packets(net::PortId input, net::PortId output) const {
  check_ports(input, output);
  return voq(input, output).packets;
}

bool VoqBank::empty(net::PortId input, net::PortId output) const {
  check_ports(input, output);
  return voq(input, output).head == nullptr;
}

std::int64_t VoqBank::input_bytes(net::PortId input) const {
  if (input >= inputs_) throw std::out_of_range{"VoqBank::input_bytes"};
  return input_bytes_[input];
}

std::int64_t VoqBank::peak_input_bytes(net::PortId input) const {
  if (input >= inputs_) throw std::out_of_range{"VoqBank::peak_input_bytes"};
  return input_peaks_[input];
}

std::int64_t VoqBank::max_voq_bytes() const {
  std::int64_t best = 0;
  for (const Voq& q : voqs_) best = std::max(best, q.bytes);
  return best;
}

void VoqBank::reset_peaks() noexcept {
  stats_.peak_total_bytes = total_bytes_;
  for (std::uint32_t i = 0; i < inputs_; ++i) input_peaks_[i] = input_bytes_[i];
}

}  // namespace xdrs::queueing
