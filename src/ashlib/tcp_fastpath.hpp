// The TCP common-case fast path as a downloadable handler (Section V-B).
//
// "Our TCP implementation lowers the cost of data transfer by placing the
// common-case fast path in a handler which can be run either as an ASH or
// an upcall. This handler employs dynamic ILP to combine the checksum and
// copy of message data."
//
// The handler runs at message arrival, before any scheduling decision:
//  1. aborts (voluntarily) unless the packet is "expected" — header
//     prediction: established connection, plain ACK(+data), seq == rcv_nxt
//     — and the library is not mid-TCB (`lib_busy`), and the staging ring
//     has contiguous room;
//  2. verifies the TCP checksum while copying the payload into the shared
//     staging ring with one fused DILP traversal (checksum pipe + copy);
//  3. commits: advances rcv_nxt and the staging ring, records the
//     cumulative ACK and the peer window for the library's writer;
//  4. patches the connection's pre-built ACK template (seq/ack/window +
//     TCP checksum) and transmits it — all without waking the application.
//
// Any deviation aborts and the packet falls back to the user-level
// library, which re-runs full protocol processing on it.
#pragma once

#include <optional>
#include <string>

#include "core/ash.hpp"
#include "core/upcall.hpp"
#include "net/an2.hpp"
#include "net/ethernet.hpp"
#include "proto/tcp.hpp"

namespace ash::ashlib {

/// Build the fast-path VCODE program against DILP kernel `ilp_id` (a
/// cksum|copy composition registered in the node's engine; see
/// register_fastpath_ilp). The TCB base arrives as the handler's user
/// argument (r3). `hdr_off` is the link framing size before the IP header
/// (0 for the AN2, proto::kEthHeaderLen for Ethernet) — message bytes are
/// accessed through TMsgLoad/TDilp, so one handler body serves both NICs.
vcode::Program make_tcp_fastpath_program(int ilp_id,
                                         std::uint32_t hdr_off = 0);

/// Register the checksum+copy DILP composition the fast path invokes.
/// Returns the ilp id, or -1 with `error` set.
int register_fastpath_ilp(core::AshSystem& ash, std::string* error);

struct TcpFastPath {
  int ash_id = -1;
  int ilp_id = -1;
  sandbox::Report report;
};

/// One-call installation: register the DILP kernel, build + download the
/// handler (per `opts`), attach it to `vc` on `dev`, and flip the
/// connection into handler mode. Returns nullopt with `error` set on
/// failure.
std::optional<TcpFastPath> install_tcp_fastpath(core::AshSystem& ash,
                                                net::An2Device& dev, int vc,
                                                proto::TcpConnection& conn,
                                                const core::AshOptions& opts,
                                                std::string* error);

/// Install the fast path on an Ethernet/DPF endpoint: the handler reads
/// the (striped) frame through trusted calls, moves the payload with a
/// single fused traversal, and replies with an Ethernet-framed ACK built
/// from the connection's template. `local_mac`/`peer_mac` frame the ACK.
std::optional<TcpFastPath> install_tcp_fastpath_eth(
    core::AshSystem& ash, net::EthernetDevice& dev, int endpoint,
    proto::TcpConnection& conn, const proto::MacAddr& local_mac,
    const proto::MacAddr& peer_mac, const core::AshOptions& opts,
    std::string* error);

/// The same fast path as a *fast asynchronous upcall* (the paper's
/// comparison point): native code at user level, same TCB discipline,
/// integrated checksum+copy via the charged memops, deferred ACK send.
void install_tcp_fastpath_upcall(core::UpcallManager& upcalls,
                                 net::An2Device& dev, int vc,
                                 proto::TcpConnection& conn);

}  // namespace ash::ashlib
