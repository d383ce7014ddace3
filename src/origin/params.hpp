// Cost-model parameters for the simulated SGI Origin2000.
//
// The Origin2000 (Laudon & Lenoski, ISCA'97) is a directory-based ccNUMA
// machine: each node holds two MIPS R10000 processors (250 MHz, 4 MB
// off-chip L2) and a Hub chip; nodes are wired by CrayLink routers into a
// "fat bristled hypercube".  The parameters below are taken from the
// published machine characterisations and from the latency/bandwidth tables
// reported in the Shan/Singh/Oliker/Biswas paper series; see DESIGN.md §2.
//
// All costs are in *simulated nanoseconds*.  The simulation charges:
//   * computation through per-kernel work constants (KernelCosts),
//   * explicit communication through the per-model formulas below,
//   * CC-SAS remote/coherence *premiums* through the cache simulator
//     (the local-memory component of a miss is considered part of the
//     kernel constants so all three models are costed consistently).
#pragma once

#include <cstddef>
#include <cstdint>

namespace o2k::origin {

struct MachineParams {
  // ---- structure -------------------------------------------------------
  int max_pes = 64;        ///< processors the modelled machine can host
  int pes_per_node = 2;    ///< R10000s that share one node (Hub + memory)

  // ---- processor -------------------------------------------------------
  double cpu_hz = 250e6;   ///< R10000 clock
  double ns_per_flop = 2.0;  ///< sustained; R10000 retires ~0.5 flop/cycle on irregular code

  // ---- memory hierarchy ------------------------------------------------
  int cache_line_bytes = 128;      ///< L2 line size
  std::size_t l2_bytes = 4u << 20; ///< 4 MB unified L2 per processor
  int page_bytes = 16384;          ///< IRIX 16 KB pages (first-touch placement)
  double local_mem_ns = 338.0;     ///< restart latency, local memory
  double router_hop_ns = 101.0;    ///< added latency per router traversal (one way)
  double mem_bw_bytes_per_ns = 0.62;  ///< ~620 MB/s sustained local copy bandwidth

  // ---- coherence (CC-SAS premiums) --------------------------------------
  /// Extra cost of a miss that must be served from a *remote* node, beyond
  /// the local component already folded into kernel constants:
  ///   remote_premium(hops) = 2*hops*router_hop_ns  (request + reply)
  /// Extra cost when a written line was last cached by another processor
  /// (ownership transfer / invalidation round):
  double ownership_extra_ns = 210.0;

  // ---- MPI (two-sided message passing) ----------------------------------
  double mp_o_send_ns = 5000.0;   ///< per-message software send overhead
  double mp_o_recv_ns = 5000.0;   ///< per-message software receive overhead
  double mp_bw_bytes_per_ns = 0.15;  ///< ~150 MB/s sustained MPI bandwidth
  std::size_t mp_eager_bytes = 16384;  ///< eager/rendezvous protocol switch
  double mp_rendezvous_extra_ns = 9000.0;  ///< RTS/CTS handshake cost

  // ---- SHMEM (one-sided data passing) ------------------------------------
  double shmem_o_ns = 900.0;      ///< put/get initiation overhead
  double shmem_bw_bytes_per_ns = 0.30;  ///< ~300 MB/s sustained put bandwidth
  double shmem_atomic_ns = 1600.0;      ///< remote fetch-op round trip
  double shmem_barrier_base_ns = 1400.0;  ///< per log2(P) stage of barrier_all

  // ---- CC-SAS synchronisation --------------------------------------------
  double sas_barrier_base_ns = 900.0;  ///< per log2(P) stage (LL/SC tree barrier)
  double sas_lock_ns = 420.0;          ///< uncontended lock acquire+release

  /// The reference machine: a 64-processor Origin2000.
  static MachineParams origin2000();

  /// The reference machine scaled up to host `max_pes` processors — the
  /// same node, hub, router and memory parameters, just a larger (deeper)
  /// bristled hypercube.  Hop counts are the Hamming distance of node ids,
  /// so for any pair of PEs that fits the 64-PE machine the costs are
  /// identical to `origin2000()`: sweeps beyond the paper's P=64 extend the
  /// curve without perturbing the points on it.
  static MachineParams origin2000_scaled(int max_pes);

  // ---- derived cost formulas ---------------------------------------------

  /// Node index hosting a PE.
  [[nodiscard]] int node_of(int pe) const { return pe / pes_per_node; }

  /// Router hops between two nodes of the (bristled) hypercube.
  /// Nodes are numbered so that the hop count is the Hamming distance of
  /// the node ids; two PEs on one node are 0 hops apart.
  [[nodiscard]] int hops(int pe_a, int pe_b) const;

  /// Worst-case hop count for a machine using `pes` processors.
  [[nodiscard]] int max_hops(int pes) const;

  /// One-way network latency between two PEs (no software overhead).
  [[nodiscard]] double wire_ns(int pe_a, int pe_b) const {
    return static_cast<double>(hops(pe_a, pe_b)) * router_hop_ns;
  }

  /// CC-SAS premium for a read miss served by `home_pe`'s memory as seen
  /// from `pe` (0 when local to the node — the local component is already
  /// folded into kernel compute constants).
  [[nodiscard]] double remote_read_premium_ns(int pe, int home_pe) const {
    return 2.0 * wire_ns(pe, home_pe);
  }

  /// MPI message cost components.
  [[nodiscard]] double mp_wire_ns(int src, int dst, std::size_t bytes) const {
    return wire_ns(src, dst) + static_cast<double>(bytes) / mp_bw_bytes_per_ns;
  }

  /// SHMEM put/get transfer time (initiator-side, one-sided).
  [[nodiscard]] double shmem_transfer_ns(int src, int dst, std::size_t bytes) const {
    return shmem_o_ns + wire_ns(src, dst) + static_cast<double>(bytes) / shmem_bw_bytes_per_ns;
  }

  /// Local memory copy (e.g. buffer packing).
  [[nodiscard]] double memcpy_ns(std::size_t bytes) const {
    return static_cast<double>(bytes) / mem_bw_bytes_per_ns;
  }

  /// Tree-barrier cost at `pes` processors with the given per-stage cost.
  [[nodiscard]] static double tree_barrier_ns(int pes, double per_stage_ns);
};

/// Per-kernel computation constants (simulated ns of work per unit).
/// These fold in average *local* memory behaviour so that the explicit
/// models (MP/SHMEM) and CC-SAS charge identical compute for identical
/// work; CC-SAS then adds only remote/coherence premiums via CacheSim.
struct KernelCosts {
  // N-body
  double body_cell_interaction_ns = 58.0;  ///< one body–cell/body–body force eval (~29 flops)
  double tree_insert_ns = 140.0;           ///< insert a body into the octree
  double com_cell_ns = 34.0;               ///< centre-of-mass accumulation per child
  double body_update_ns = 40.0;            ///< leapfrog update per body

  // Mesh adaptation
  double edge_mark_ns = 90.0;       ///< error-indicator evaluation per edge
  double tet_refine_ns = 620.0;     ///< subdivide one tetrahedron (template dispatch)
  double tet_coarsen_ns = 260.0;    ///< undo one refinement family member
  double vertex_create_ns = 180.0;  ///< allocate + position a new mid-edge vertex
  double dualgraph_ns = 70.0;       ///< per dual edge during graph construction

  // Load balancing
  double partition_vertex_ns = 150.0;  ///< per dual-graph vertex per bisection level
  double remap_per_byte_ns = 0.0;      ///< remap payload is charged via the model runtimes

  // DHT overlay (o2k::dht)
  double dht_gen_ns = 45.0;          ///< draw + admit one client request
  double dht_hash_ns = 25.0;         ///< hash a key / node onto the ring
  double dht_finger_scan_ns = 12.0;  ///< examine one finger-table entry while routing
  double dht_serve_ns = 160.0;       ///< execute a get at the owner (store probe)
  double dht_store_ns = 85.0;        ///< apply a put / replica write to the store
  double dht_repair_key_ns = 90.0;   ///< copy one key during churn repair
  double dht_rebuild_node_ns = 700.0;  ///< rebuild one node's ring+finger state

  static KernelCosts origin2000();
};

}  // namespace o2k::origin
