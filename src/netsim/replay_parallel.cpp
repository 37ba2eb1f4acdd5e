/// The partitioned-clock sequencer: replay() with more than one shard.
/// Each shard advances its contiguous rank range to quiescence on its own
/// thread, submitting cross-rank sends; the sequencer applies them in the
/// serial loop's total order inside a conservative lookahead window.

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "replay_detail.hpp"

namespace hfast::netsim::detail {

namespace {

/// Bounded SPSC submission queue, one per worker shard (the sequencer is
/// the single consumer of all of them). push() blocks on capacity —
/// backpressure, not loss — which is deadlock-free because the sequencer
/// drains concurrently with worker execution and never blocks on a full
/// queue itself.
class TransferQueue {
 public:
  explicit TransferQueue(std::size_t capacity) : capacity_(capacity) {}

  void push(const PendingTransfer& t) {
    std::unique_lock lk(m_);
    not_full_.wait(lk, [&] { return buf_.size() < capacity_; });
    buf_.push_back(t);
    lk.unlock();
    not_empty_.notify_one();
  }

  /// Producer: this round's submissions are complete.
  void producer_done() {
    {
      std::lock_guard lk(m_);
      done_ = true;
    }
    not_empty_.notify_one();
  }

  /// Consumer: re-arm for the next round (call between rounds only —
  /// i.e. while the producer is parked at the round gate).
  void reset_round() {
    std::lock_guard lk(m_);
    done_ = false;
  }

  /// Consumer: block until submissions are available or the round is
  /// complete; append whatever is there. Returns false once the producer
  /// finished the round and the queue is empty.
  bool drain(std::vector<PendingTransfer>& out) {
    std::unique_lock lk(m_);
    not_empty_.wait(lk, [&] { return !buf_.empty() || done_; });
    if (buf_.empty()) return false;
    out.insert(out.end(), buf_.begin(), buf_.end());
    buf_.clear();
    lk.unlock();
    not_full_.notify_all();
    return true;
  }

 private:
  std::mutex m_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::vector<PendingTransfer> buf_;
  std::size_t capacity_;
  bool done_ = false;
};

/// Round barrier: workers park here after quiescing; the sequencer
/// releases the next round (or tells everyone to exit). The gate's mutex
/// is also the happens-before edge that publishes the arrivals the
/// sequencer delivered (and the ranks it woke) to the workers that own them.
class RoundGate {
 public:
  /// Worker side: wait for a generation newer than `seen`, adopt it.
  /// Returns false when the sequencer ordered shutdown.
  bool await(std::uint64_t& seen) {
    std::unique_lock lk(m_);
    cv_.wait(lk, [&] { return generation_ > seen || exit_; });
    seen = generation_;
    return !exit_;
  }

  /// Sequencer side: start the next round, or shut the workers down.
  void release(bool exit) {
    {
      std::lock_guard lk(m_);
      if (exit) {
        exit_ = true;
      } else {
        ++generation_;
      }
    }
    cv_.notify_all();
  }

 private:
  std::mutex m_;
  std::condition_variable cv_;
  std::uint64_t generation_ = 0;
  bool exit_ = false;
};

}  // namespace

void run_sharded(ReplayState& state, Network& net, int nshards,
                 std::size_t channel_capacity, double lookahead) {
  const int n = state.nranks;
  // Shard s owns ranks [bound(s), bound(s + 1)) and their receive channels.
  const auto bound = [n, nshards](int s) {
    return static_cast<int>(static_cast<long long>(s) * n / nshards);
  };
  // finished[s]: ranks shard s completed, as of the end of its last round.
  std::vector<int> finished(static_cast<std::size_t>(nshards), 0);
  // One round of one shard: advance every runnable rank until it blocks or
  // finishes. Ranks only interact through sequenced transfers, so a single
  // in-order pass reaches shard-wide quiescence.
  const auto run_round = [&](int s, const auto& submit) {
    int done = 0;
    for (int r = bound(s); r < bound(s + 1); ++r) {
      RankState& rs = state.ranks[static_cast<std::size_t>(r)];
      while (!rs.blocked && !rs.done()) state.step(r, submit);
      if (rs.done()) ++done;
    }
    finished[static_cast<std::size_t>(s)] = done;
  };

  // Shard 0 runs on this thread, interleaved with sequencing; its
  // submissions land in a plain vector. Shards 1..K-1 get a thread and a
  // bounded queue each.
  std::vector<std::unique_ptr<TransferQueue>> queues;
  for (int s = 1; s < nshards; ++s) {
    queues.push_back(std::make_unique<TransferQueue>(channel_capacity));
  }
  RoundGate gate;
  std::vector<std::exception_ptr> worker_errors(queues.size());
  std::vector<std::thread> workers;
  workers.reserve(queues.size());
  for (int s = 1; s < nshards; ++s) {
    workers.emplace_back([&, s] {
      TransferQueue& queue = *queues[static_cast<std::size_t>(s - 1)];
      std::uint64_t seen = 0;
      try {
        for (;;) {
          run_round(s, [&queue](const PendingTransfer& t) { queue.push(t); });
          queue.producer_done();
          if (!gate.await(seen)) return;
        }
      } catch (...) {
        // Keep the round protocol alive so the sequencer never hangs on a
        // dead producer; it will notice the stored error and shut down.
        worker_errors[static_cast<std::size_t>(s - 1)] =
            std::current_exception();
        queue.producer_done();
        while (gate.await(seen)) queue.producer_done();
      }
    });
  }

  // Transfers beyond past windows.
  TransferHeap withheld;
  std::vector<PendingTransfer> pending;
  std::exception_ptr failure;
  for (;;) {
    // Run our own shard to quiescence, then collect every other shard's
    // submissions. Draining while workers still run is what makes the
    // bounded queues deadlock-free.
    pending.clear();
    run_round(0,
              [&pending](const PendingTransfer& t) { pending.push_back(t); });
    for (auto& q : queues) {
      while (q->drain(pending)) {
      }
    }
    for (std::exception_ptr& e : worker_errors) {
      if (e) failure = e;
    }
    if (failure) break;

    for (const PendingTransfer& t : pending) withheld.push(t);

    // All ranks done: the remaining withheld transfers flush below. Nothing
    // in flight with a rank still waiting: a stall, which finish() reports.
    int done = 0;
    for (const int f : finished) done += f;
    if (done == n || withheld.empty()) break;

    // Conservative window: every transfer not yet submitted is downstream
    // of some withheld delivery, so it starts no earlier than the current
    // minimum start plus the lookahead. Everything strictly inside the
    // window is final and can be sequenced. The workers are parked at the
    // gate, so the sequencer may write their receivers' channels and wake
    // flags; the gate's mutex publishes those writes to the next round.
    // The heap pops in the serial order, and `start` never decreases along
    // it, so this applies exactly the transfers inside the window, in order.
    const double window_end = withheld.top().start + lookahead;
    while (!withheld.empty() && withheld.top().start < window_end) {
      state.sequence(net, withheld.top());
      withheld.pop();
    }

    for (auto& q : queues) q->reset_round();
    gate.release(/*exit=*/false);
  }

  gate.release(/*exit=*/true);
  for (std::thread& w : workers) w.join();
  if (failure) std::rethrow_exception(failure);

  // Unmatched sends: every rank finished but their transfers still owe the
  // network (and the stats) their traversal, just as in the serial loop.
  for (; !withheld.empty(); withheld.pop()) state.sequence(net, withheld.top());
}

}  // namespace hfast::netsim::detail
