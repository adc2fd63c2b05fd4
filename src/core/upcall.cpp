#include "core/upcall.hpp"

namespace ash::core {

bool UpcallManager::run(
    Handler& handler, const Ctx& base,
    const std::function<bool(int, std::span<const std::uint8_t>)>& send_fn) {
  ++invocations_;

  auto pending = std::make_shared<std::vector<PendingSend>>();
  Ctx ctx = base;
  ctx.send = [pending](int chan, std::span<const std::uint8_t> bytes) {
    pending->push_back({chan, {bytes.begin(), bytes.end()}});
  };

  const Result r = handler(ctx);

  const sim::CostModel& cost = node_.cost();
  // Address-space switch + user-level entry/exit, handler runtime, and the
  // batching machinery's overhead.
  const sim::Cycles total =
      cost.upcall_dispatch + r.cycles + cost.upcall_batching;
  node_.kernel_work(total, [send_fn, pending] {
    for (const PendingSend& s : *pending) send_fn(s.channel, s.bytes);
  });
  return r.consumed;
}

void UpcallManager::attach(net::RxPort& port, int channel,
                           Handler handler) {
  handlers_.push_back(std::make_unique<Handler>(std::move(handler)));
  Handler* h = handlers_.back().get();
  net::RxPort* p = &port;
  port.set_kernel_hook(channel, [this, h, p](const net::RxPort::RxEvent& ev) {
    Ctx ctx;
    ctx.msg_addr = ev.desc.addr;
    ctx.msg_len = ev.desc.len;
    ctx.stripe_chunk = p->stripe_chunk();
    ctx.channel = ev.channel;
    return run(*h, ctx,
               [p](int chan, std::span<const std::uint8_t> bytes) {
                 return p->send(chan, bytes);
               });
  });
}

}  // namespace ash::core
