// Incrementally maintained derived state for the online dispatch service:
// the streamed replacement for PopulationTracker + batch map-matching +
// batch FlowRateAnalyzer::Ingest.
//
// ApplyBatch() consumes one drained batch of raw GPS records (single-
// threaded by the service's tick loop) and keeps
//   - each person's latest known position (the dispatcher's population
//     snapshot: sim::PopulationSource),
//   - each record's map-matched segment (mobility::MapMatcher),
//   - per-(segment, hour) vehicle flow counts (mobility::FlowRateAnalyzer,
//     whose (person, segment, hour) dedup is order- and batching-
//     independent).
//
// Every batch runs the same three phases (DESIGN.md §17). The spatial grid
// is tiled into `config.shards` contiguous rectangular tiles (one tile by
// default). (a) Records are validated and applied to the latest-position
// map sequentially in drain order, then bucketed by the tile of the
// *record position*. (b) Each tile's bucket is grouped by grid cell with a
// counting sort and batch-matched (the SoA nearest-segment scan). (c) Every
// matched record is handed to the tile that *owns its matched segment* (by
// midpoint), whose private FlowRateAnalyzer ingests it. Segment ownership
// makes the per-tile flow cells disjoint, so phases (b) and (c) run on
// config.shard_workers threads without locks and a merged counts mirror
// stays exact. Matching is per-record independent and flow dedup is
// order-independent, so the snapshot, counters and exported flow state are
// bit-identical for every tile count and worker count, and equal to the
// batch PopulationTracker + MapMatcher + FlowRateAnalyzer pipeline
// (stream_state_test and region_shard_test prove it).
//
// Phase (a) also guards the derived state against corrupt input (DESIGN.md
// §13): records with non-finite fields, positions outside the accept box,
// or a timestamp strictly older than the person's latest applied record are
// *quarantined* — counted per reason, never applied, never fed to the flow
// analyzer. Quarantine keeps the bit-identity contract intact: on clean
// input nothing is ever quarantined (equal timestamps still overwrite,
// matching the batch tracker's stable-sort "latest wins" semantics).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "mobility/flow_rate.hpp"
#include "mobility/gps_record.hpp"
#include "mobility/map_matcher.hpp"
#include "obs/metrics.hpp"
#include "roadnet/road_network.hpp"
#include "roadnet/spatial_index.hpp"
#include "sim/population_tracker.hpp"
#include "util/geo.hpp"

namespace mobirescue::serve {

struct StreamStateConfig {
  mobility::MatchConfig match;
  /// Flow analyzer parameters: records are in simulation day time, so 24
  /// hourly cells cover the horizon.
  int flow_total_hours = 24;
  double moving_speed_threshold_mps = 2.0;
  /// Input validation (DESIGN.md §13). When false, ApplyBatch() trusts its
  /// input completely (the pre-quarantine behaviour).
  bool validate = true;
  /// When set, positions outside this box are quarantined. Unset by
  /// default so a bare StreamState accepts any finite position; the
  /// DispatchService fills it in with the city's bounding box.
  std::optional<util::BoundingBox> accept_box;
  /// Geographic tiles for ApplyBatch's match and flow-ingest phases.
  /// Results are bit-identical for every value; more tiles give smaller
  /// per-tile dedup sets and work for shard_workers to share.
  int shards = 1;
  /// Threads for the per-tile match/ingest phases. 0 runs them inline on
  /// the caller (the right default on small machines); results are
  /// identical either way.
  int shard_workers = 0;
};

/// Counters over everything ApplyBatch() has seen.
struct StreamStateCounters {
  std::uint64_t applied = 0;    // records consumed
  std::uint64_t matched = 0;    // snapped to a segment (fed to flows)
  std::uint64_t unmatched = 0;  // too far from any segment
  // Quarantined records, by rejection reason (never applied):
  std::uint64_t quarantined_non_finite = 0;  // NaN/inf in any field
  std::uint64_t quarantined_out_of_box = 0;  // outside config.accept_box
  std::uint64_t quarantined_stale = 0;  // older than the person's latest

  std::uint64_t quarantined() const {
    return quarantined_non_finite + quarantined_out_of_box +
           quarantined_stale;
  }
};

class StreamState : public sim::PopulationSource {
 public:
  StreamState(const roadnet::RoadNetwork& net,
              const roadnet::SpatialIndex& index,
              StreamStateConfig config = {});

  /// Consumes one drained batch (the phases in the header comment): updates
  /// each person's latest position and, for records that match a segment,
  /// the incremental flow counts. Records of one person must arrive in time
  /// order (the sharded queue and the per-person streamer workers guarantee
  /// this); interleaving across persons is free, and so is the split of a
  /// stream into batches. Corrupt records are quarantined, not applied.
  void ApplyBatch(const mobility::GpsRecord* records, std::size_t n);

  /// Every person's latest applied position. `t` is accepted for interface
  /// compatibility (PopulationSource); the service only snapshots after
  /// draining all records with time <= t, so the content equals the batch
  /// tracker's Snapshot(t).
  const std::vector<mobility::GpsRecord>& Snapshot(util::SimTime t) override;

  /// Crash recovery (DESIGN.md §13): the latest-position map sorted by
  /// person id, and the flow dedup/count state: the merge of the per-tile
  /// analyzers, identical bytes for every tile count.
  std::vector<mobility::GpsRecord> ExportLatest() const;
  void ExportFlowState(
      std::vector<std::pair<std::uint64_t, std::uint32_t>>* cells,
      std::vector<std::uint64_t>* seen) const;

  /// Restores state captured by the Export* methods into a freshly built
  /// StreamState over the same network. Replaces (not merges) the current
  /// state. Shard counts may differ between exporter and restorer.
  void Restore(const std::vector<mobility::GpsRecord>& latest,
               const StreamStateCounters& counters,
               const std::vector<std::pair<std::uint64_t, std::uint32_t>>&
                   flow_cells,
               const std::vector<std::uint64_t>& flow_seen);

  /// Flow reads: the merged counts mirror. Every per-tile increment lands
  /// here too, so SegmentFlow/RegionFlow reads cost one array lookup (its
  /// dedup set stays empty; dedup lives in the per-tile analyzers).
  const mobility::FlowRateAnalyzer& flows() const { return flows_; }
  const StreamStateCounters& counters() const { return counters_; }
  std::size_t num_people_seen() const { return latest_.size(); }
  const StreamStateConfig& config() const { return config_; }
  int num_shards() const { return shards_; }

 private:
  /// Validation + latest-position update for one record, sequential in
  /// drain order (phase a). True when the record was applied and still
  /// needs matching/flow ingest.
  bool ApplyCore(const mobility::GpsRecord& record);
  /// Runs `fn(shard)` for every shard, inline or on shard_workers threads.
  void ForEachShard(const std::function<void(int)>& fn) const;

  const roadnet::SpatialIndex& index_;
  mobility::MapMatcher matcher_;
  mobility::FlowRateAnalyzer flows_;
  StreamStateConfig config_;
  StreamStateCounters counters_;
  int shards_ = 1;

  /// Grid cell -> owning shard (contiguous rectangular tiles), and segment
  /// -> owning shard (by midpoint cell).
  std::vector<int> cell_shard_;
  std::vector<int> segment_shard_;
  /// Per-shard flow analyzers (dedup + counts over the shard's own
  /// segments; cell ranges disjoint across shards).
  std::vector<mobility::FlowRateAnalyzer> flow_shards_;

  /// Reusable per-batch scratch, indexed by shard so a threaded phase B
  /// never shares a buffer. Capacity persists across ApplyBatch calls, so
  /// the steady-state drain allocates nothing.
  struct ShardScratch {
    std::vector<mobility::GpsRecord> bucket;  ///< phase A survivors
    std::vector<std::uint32_t> bucket_cell;   ///< grid cell per survivor
    std::vector<std::uint32_t> cell_start;    ///< counting-sort offsets
    std::vector<mobility::GpsRecord> grouped;
    std::vector<mobility::MatchedRecord> matched;  ///< this batch's matches
  };
  std::vector<ShardScratch> scratch_;
  std::vector<std::vector<std::vector<mobility::MatchedRecord>>> handoff_;

  std::unordered_map<mobility::PersonId, mobility::GpsRecord> latest_;
  std::vector<mobility::GpsRecord> snapshot_;
  bool dirty_ = true;

  // Registry-backed quarantine tallies (one aggregate + one per reason).
  obs::Counter quarantined_total_{
      "serve_quarantined_total",
      "GPS records rejected by input validation (all reasons)."};
  obs::Counter quarantine_non_finite_{
      "serve_quarantine_non_finite_total",
      "GPS records quarantined for NaN/inf fields."};
  obs::Counter quarantine_out_of_box_{
      "serve_quarantine_out_of_box_total",
      "GPS records quarantined for positions outside the accept box."};
  obs::Counter quarantine_stale_{
      "serve_quarantine_stale_total",
      "GPS records quarantined for non-monotonic per-person timestamps."};
};

}  // namespace mobirescue::serve
