// Fast asynchronous upcalls — the mechanism the paper builds as the
// comparison point for ASHs (Section V).
//
// An upcall runs application code at *user level* in response to a
// message, via an address-space switch rather than a full context switch
// (after Liedtke). It needs no sandboxing — the handler runs with user
// privileges — but pays the kernel/user boundary and the batching
// machinery the paper describes: "the upcall mechanism was designed to
// batch messages together to avoid multiple (potentially expensive)
// kernel crossings".
//
// Handlers are native callables. They receive a context with the message
// location and a deferred `send` primitive, do their work with charged
// memops (returning the cycles they consumed), and report whether the
// message was consumed. Sends queued through the context are released
// when the handler's simulated runtime has elapsed — the same accounting
// discipline as ASH replies.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "net/rx_port.hpp"
#include "sim/node.hpp"

namespace ash::core {

class UpcallManager {
 public:
  explicit UpcallManager(sim::Node& node) : node_(node) {}

  struct Ctx {
    std::uint32_t msg_addr = 0;
    std::uint32_t msg_len = 0;
    std::uint32_t stripe_chunk = 0;
    int channel = 0;
    /// Queue a reply; delivered when the handler's runtime has elapsed.
    std::function<void(int chan, std::span<const std::uint8_t>)> send;
  };

  struct Result {
    sim::Cycles cycles = 0;  // CPU the handler consumed (from memops etc.)
    bool consumed = true;
  };

  using Handler = std::function<Result(const Ctx&)>;

  /// Run `handler` for every arrival on the port's channel. The context
  /// carries the port's stripe geometry; replies go out on the port.
  void attach(net::RxPort& port, int channel, Handler handler);

  std::uint64_t invocations() const noexcept { return invocations_; }

 private:
  struct PendingSend {
    int channel;
    std::vector<std::uint8_t> bytes;
  };

  bool run(Handler& handler, const Ctx& base,
           const std::function<bool(int, std::span<const std::uint8_t>)>&
               send_fn);

  sim::Node& node_;
  std::vector<std::unique_ptr<Handler>> handlers_;
  std::uint64_t invocations_ = 0;
};

}  // namespace ash::core
