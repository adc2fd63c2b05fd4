#include "net/an2_switch.hpp"

#include <gtest/gtest.h>

#include <cstring>

#include "ashlib/handlers.hpp"
#include "core/ash.hpp"
#include "proto/an2_link.hpp"
#include "sim/kernel.hpp"
#include "sim/simulator.hpp"
#include "util/byteorder.hpp"

namespace ash::net {
namespace {

using sim::Node;
using sim::Process;
using sim::Simulator;
using sim::Task;
using sim::us;

struct Star {
  Simulator sim;
  Node* hub;
  Node* n1;
  Node* n2;
  An2Device* dev_hub;
  An2Device* dev_1;
  An2Device* dev_2;
  An2Switch* sw;
  int port_hub, port_1, port_2;

  Star() {
    hub = &sim.add_node("hub");
    n1 = &sim.add_node("n1");
    n2 = &sim.add_node("n2");
    dev_hub = new An2Device(*hub);
    dev_1 = new An2Device(*n1);
    dev_2 = new An2Device(*n2);
    sw = new An2Switch(sim);
    port_hub = sw->attach(*dev_hub);
    port_1 = sw->attach(*dev_1);
    port_2 = sw->attach(*dev_2);
  }
  ~Star() {
    delete sw;
    delete dev_hub;
    delete dev_1;
    delete dev_2;
  }
};

TEST(An2Switch, RoutesByCircuitTable) {
  Star s;
  // n1's circuit 0 <-> hub's vc 0; n2's circuit 0 <-> hub's vc 1.
  s.sw->add_duplex(s.port_1, 0, s.port_hub, 0);
  s.sw->add_duplex(s.port_2, 0, s.port_hub, 1);

  std::vector<int> got_on;  // hub: which VC each message arrived on
  s.hub->kernel().spawn("hub", [&](Process& self) -> Task {
    const int vc0 = s.dev_hub->bind_vc(self);
    const int vc1 = s.dev_hub->bind_vc(self);
    s.dev_hub->supply_buffer(vc0, self.segment().base, 64);
    s.dev_hub->supply_buffer(vc1, self.segment().base + 64, 64);
    for (int i = 0; i < 2; ++i) {
      for (;;) {
        if (s.dev_hub->poll(vc0)) {
          got_on.push_back(0);
          break;
        }
        if (s.dev_hub->poll(vc1)) {
          got_on.push_back(1);
          break;
        }
        co_await self.compute(self.node().cost().poll_iteration);
      }
    }
  });
  s.n1->kernel().spawn("n1", [&](Process& self) -> Task {
    co_await self.sleep_for(us(500.0));
    const std::uint8_t m[] = {1, 1, 1, 1};
    s.dev_1->send(0, m);  // addressed to n1's own circuit 0
  });
  s.n2->kernel().spawn("n2", [&](Process& self) -> Task {
    co_await self.sleep_for(us(5000.0));
    const std::uint8_t m[] = {2, 2, 2, 2};
    s.dev_2->send(0, m);
  });
  s.sim.run(us(1e6));
  ASSERT_EQ(got_on.size(), 2u);
  EXPECT_EQ(got_on[0], 0);  // n1 -> hub vc 0
  EXPECT_EQ(got_on[1], 1);  // n2 -> hub vc 1
  EXPECT_EQ(s.sw->unrouted(), 0u);
}

TEST(An2Switch, UnroutedCellsAreCountedNotDelivered) {
  Star s;
  s.n1->kernel().spawn("n1", [&](Process& self) -> Task {
    co_await self.sleep_for(us(100.0));
    const std::uint8_t m[] = {9, 9, 9, 9};
    s.dev_1->send(7, m);  // no circuit programmed for vc 7
  });
  s.sim.run(us(1e5));
  EXPECT_EQ(s.sw->unrouted(), 1u);
}

TEST(An2Switch, ExclusiveWithPointToPoint) {
  Simulator sim;
  Node& a = sim.add_node("a");
  Node& b = sim.add_node("b");
  An2Device da(a), db(b);
  da.connect(db);
  An2Switch sw(sim);
  EXPECT_THROW(sw.attach(da), std::logic_error);

  An2Device dc(a);
  sw.attach(dc);
  An2Device dd(b);
  EXPECT_THROW(dc.connect(dd), std::logic_error);
}

TEST(An2Switch, RemoteIncrementThroughSwitch) {
  Star s;
  // Dedicated hub VC per client so replies route cleanly:
  // n1 <-> hub vc 0, n2 <-> hub vc 1.
  s.sw->add_duplex(s.port_1, 0, s.port_hub, 0);
  s.sw->add_duplex(s.port_2, 0, s.port_hub, 1);
  core::AshSystem ash_hub(*s.hub);
  std::uint32_t ctr = 0;

  s.hub->kernel().spawn("home", [&](Process& self) -> Task {
    const int vc0 = s.dev_hub->bind_vc(self);
    const int vc1 = s.dev_hub->bind_vc(self);
    for (int i = 0; i < 8; ++i) {
      s.dev_hub->supply_buffer(
          vc0, self.segment().base + 64u * static_cast<std::uint32_t>(i),
          64);
      s.dev_hub->supply_buffer(
          vc1,
          self.segment().base + 512 + 64u * static_cast<std::uint32_t>(i),
          64);
    }
    ctr = self.segment().base + 0x4000;
    std::string error;
    const int id = ash_hub.download(
        self, ashlib::make_remote_increment(), {}, &error);
    EXPECT_GE(id, 0) << error;
    ash_hub.attach(*s.dev_hub, vc0, id, ctr);
    ash_hub.attach(*s.dev_hub, vc1, id, ctr);
    co_await self.sleep_for(us(200000.0));
    EXPECT_EQ(ash_hub.stats(id).commits, 4u);
  });

  auto client = [&](Node* node, An2Device* dev) {
    node->kernel().spawn("client", [&, dev](Process& self) -> Task {
      proto::An2Link link(self, *dev, {});
      co_await self.sleep_for(us(1000.0));
      const std::uint8_t ping[] = {1, 2, 3, 4};
      for (int i = 0; i < 2; ++i) {
        const bool sent = co_await link.send_bytes(ping);
        EXPECT_TRUE(sent);
        const net::RxDesc d = co_await link.recv();
        link.release(d);
      }
    });
  };
  client(s.n1, s.dev_1);
  client(s.n2, s.dev_2);
  s.sim.run(us(1e6));
  EXPECT_EQ(util::load_u32(s.hub->mem(ctr, 4)), 4u);
}

}  // namespace
}  // namespace ash::net
