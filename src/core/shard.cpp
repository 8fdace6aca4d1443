#include "core/shard.hpp"

#include <algorithm>

#include "support/assert.hpp"
#include "support/json_reader.hpp"
#include "support/json_writer.hpp"

namespace avglocal::core {

namespace {

/// Version 3: the meta block gained the `engine` field ("view" |
/// "message") and points carry the edge-averaged partials (`edges`,
/// `trial_edge_sum`, `edge_histogram`). Version-2 artefacts still parse:
/// they read as engine "view" with empty edge data (edges == 0), which
/// finalizes to all-zero edge measures. Version 1 (no scenario field) stays
/// rejected by the version check.
constexpr std::uint64_t kShardFormatVersion = 3;
constexpr std::uint64_t kShardFormatV2 = 2;

local::ViewSemantics semantics_from_name(const std::string& name) {
  const auto semantics = local::view_semantics_from_name(name);
  if (!semantics) throw std::runtime_error("shard: unknown view semantics '" + name + "'");
  return *semantics;
}

void write_u64_array(support::JsonWriter& json, const std::vector<std::uint64_t>& values) {
  json.begin_array();
  for (std::uint64_t v : values) json.value(v);
  json.end_array();
}

std::vector<std::uint64_t> read_u64_array(const support::JsonValue& value) {
  std::vector<std::uint64_t> out;
  out.reserve(value.size());
  for (std::size_t i = 0; i < value.size(); ++i) out.push_back(value[i].as_u64());
  return out;
}

}  // namespace

std::vector<SweepShard> plan_shards(std::size_t points, std::size_t trials,
                                    std::size_t shard_count) {
  AVGLOCAL_EXPECTS(points >= 1 && trials >= 1 && shard_count >= 1);
  const std::size_t shards = std::min(shard_count, trials);
  std::vector<SweepShard> plan;
  plan.reserve(shards);
  // Near-equal contiguous ranges: the first (trials % shards) shards take
  // one extra trial, so sizes differ by at most one.
  const std::size_t base = trials / shards;
  const std::size_t extra = trials % shards;
  std::size_t begin = 0;
  for (std::size_t s = 0; s < shards; ++s) {
    const std::size_t size = base + (s < extra ? 1 : 0);
    plan.push_back({0, points, begin, begin + size});
    begin += size;
  }
  return plan;
}

SweepPlanMeta SweepPlanMeta::from_options(const std::vector<std::size_t>& ns,
                                          const BatchedSweepOptions& options) {
  SweepPlanMeta meta;
  meta.seed = options.seed;
  meta.trials = options.trials;
  meta.ns = ns;
  meta.semantics = options.semantics;
  meta.quantile_probs = options.quantile_probs;
  meta.node_profile = options.node_profile;
  return meta;
}

BatchedSweepOptions SweepPlanMeta::options_for() const {
  BatchedSweepOptions options;
  options.seed = seed;
  options.trials = trials;
  options.semantics = semantics;
  options.quantile_probs = quantile_probs;
  options.node_profile = node_profile;
  return options;
}

std::string shard_to_json(const ShardDocument& doc) {
  support::JsonWriter json;
  json.begin_object();
  json.key("avglocal_shard").value(kShardFormatVersion);
  json.key("seed").value(doc.meta.seed);
  json.key("trials").value(static_cast<std::uint64_t>(doc.meta.trials));
  json.key("semantics").value(local::to_string(doc.meta.semantics));
  json.key("ns").begin_array();
  for (std::size_t n : doc.meta.ns) json.value(static_cast<std::uint64_t>(n));
  json.end_array();
  json.key("quantile_probs").begin_array();
  for (double q : doc.meta.quantile_probs) json.value(q);
  json.end_array();
  json.key("node_profile").value(doc.meta.node_profile);
  json.key("algorithm").value(doc.meta.algorithm);
  json.key("graph").value(doc.meta.graph);
  json.key("scenario").value(doc.meta.scenario);
  json.key("engine").value(doc.meta.engine);
  json.key("shard").begin_object();
  json.key("point_begin").value(static_cast<std::uint64_t>(doc.shard.point_begin));
  json.key("point_end").value(static_cast<std::uint64_t>(doc.shard.point_end));
  json.key("trial_begin").value(static_cast<std::uint64_t>(doc.shard.trial_begin));
  json.key("trial_end").value(static_cast<std::uint64_t>(doc.shard.trial_end));
  json.end_object();
  json.key("points").begin_array();
  for (const PointAccumulator& acc : doc.points) {
    json.begin_object();
    json.key("point_index").value(static_cast<std::uint64_t>(acc.point_index));
    json.key("n").value(static_cast<std::uint64_t>(acc.n));
    json.key("edges").value(static_cast<std::uint64_t>(acc.edges));
    json.key("trial_begin").value(static_cast<std::uint64_t>(acc.trial_begin));
    json.key("trial_sum");
    write_u64_array(json, acc.trial_sum);
    json.key("trial_max");
    write_u64_array(json, acc.trial_max);
    json.key("histogram").begin_array();
    for (std::uint64_t c : acc.histogram.counts()) json.value(c);
    json.end_array();
    json.key("node_sum");
    write_u64_array(json, acc.node_sum);
    json.key("trial_edge_sum");
    write_u64_array(json, acc.trial_edge_sum);
    json.key("edge_histogram").begin_array();
    for (std::uint64_t c : acc.edge_histogram.counts()) json.value(c);
    json.end_array();
    json.end_object();
  }
  json.end_array();
  json.end_object();
  return json.str();
}

ShardDocument parse_shard_json(std::string_view text) {
  const support::JsonValue root = support::parse_json(text);
  const support::JsonValue* version = root.find("avglocal_shard");
  if (version == nullptr ||
      (version->as_u64() != kShardFormatVersion && version->as_u64() != kShardFormatV2)) {
    throw std::runtime_error("shard: not an avglocal shard artefact (version 2 or 3)");
  }
  const bool v2 = version->as_u64() == kShardFormatV2;

  ShardDocument doc;
  doc.meta.seed = root.at("seed").as_u64();
  doc.meta.trials = root.at("trials").as_u64();
  doc.meta.semantics = semantics_from_name(root.at("semantics").as_string());
  const support::JsonValue& ns = root.at("ns");
  for (std::size_t i = 0; i < ns.size(); ++i) doc.meta.ns.push_back(ns[i].as_u64());
  const support::JsonValue& probs = root.at("quantile_probs");
  for (std::size_t i = 0; i < probs.size(); ++i) {
    doc.meta.quantile_probs.push_back(probs[i].as_double());
  }
  doc.meta.node_profile = root.at("node_profile").as_bool();
  doc.meta.algorithm = root.at("algorithm").as_string();
  doc.meta.graph = root.at("graph").as_string();
  doc.meta.scenario = root.at("scenario").as_string();
  doc.meta.engine = v2 ? "view" : root.at("engine").as_string();

  const support::JsonValue& shard = root.at("shard");
  doc.shard.point_begin = shard.at("point_begin").as_u64();
  doc.shard.point_end = shard.at("point_end").as_u64();
  doc.shard.trial_begin = shard.at("trial_begin").as_u64();
  doc.shard.trial_end = shard.at("trial_end").as_u64();

  const support::JsonValue& points = root.at("points");
  doc.points.reserve(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    const support::JsonValue& p = points[i];
    PointAccumulator acc;
    acc.point_index = p.at("point_index").as_u64();
    acc.n = p.at("n").as_u64();
    acc.trial_begin = p.at("trial_begin").as_u64();
    acc.trial_sum = read_u64_array(p.at("trial_sum"));
    acc.trial_max = read_u64_array(p.at("trial_max"));
    acc.histogram = local::RadiusHistogram(read_u64_array(p.at("histogram")));
    acc.node_sum = read_u64_array(p.at("node_sum"));
    if (v2) {
      // No edge data in version 2: edges == 0 finalizes to all-zero edge
      // measures; the zero per-trial sums keep append() and finalize_point
      // shape-consistent.
      acc.trial_edge_sum.assign(acc.trial_sum.size(), 0);
    } else {
      acc.edges = p.at("edges").as_u64();
      acc.trial_edge_sum = read_u64_array(p.at("trial_edge_sum"));
      acc.edge_histogram = local::RadiusHistogram(read_u64_array(p.at("edge_histogram")));
    }
    if (acc.trial_sum.size() != acc.trial_max.size() || acc.node_sum.size() != acc.n ||
        acc.trial_edge_sum.size() != acc.trial_sum.size()) {
      throw std::runtime_error("shard: inconsistent point arrays");
    }
    doc.points.push_back(std::move(acc));
  }
  return doc;
}

std::vector<BatchedSweepPoint> merge_shards(std::vector<ShardDocument> docs) {
  AVGLOCAL_EXPECTS(!docs.empty());
  const SweepPlanMeta& meta = docs.front().meta;
  for (const ShardDocument& doc : docs) {
    // The engine mismatch gets its own precise error: both engines' radii
    // are plain integers, so mixing a view artefact into a message plan (or
    // vice versa) is the likeliest - and least self-evident - mix-up.
    AVGLOCAL_REQUIRE_MSG(doc.meta.engine == meta.engine,
                         "shard artefacts come from different engines ('" + meta.engine +
                             "' vs '" + doc.meta.engine + "'); view and message sweeps never merge");
    AVGLOCAL_REQUIRE_MSG(doc.meta == meta, "shard artefacts describe different sweep plans");
  }

  const BatchedSweepOptions options = meta.options_for();
  std::vector<BatchedSweepPoint> points;
  points.reserve(meta.ns.size());
  for (std::size_t point = 0; point < meta.ns.size(); ++point) {
    // Collect this point's partials from every covering shard and stitch
    // them back together in global trial order.
    std::vector<PointAccumulator*> pieces;
    for (ShardDocument& doc : docs) {
      for (PointAccumulator& acc : doc.points) {
        if (acc.point_index == point) pieces.push_back(&acc);
      }
    }
    AVGLOCAL_REQUIRE_MSG(!pieces.empty(), "no shard covers a sweep point");
    std::sort(pieces.begin(), pieces.end(),
              [](const PointAccumulator* a, const PointAccumulator* b) {
                return a->trial_begin < b->trial_begin;
              });
    AVGLOCAL_REQUIRE_MSG(pieces.front()->trial_begin == 0,
                         "shard trial ranges do not start at trial 0");
    PointAccumulator merged = std::move(*pieces.front());
    for (std::size_t i = 1; i < pieces.size(); ++i) merged.append(std::move(*pieces[i]));
    AVGLOCAL_REQUIRE_MSG(merged.trial_count() == meta.trials,
                         "shard trial ranges do not cover the full plan");
    points.push_back(finalize_point(merged, options));
  }
  return points;
}

}  // namespace avglocal::core
