#include "core/shard.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "support/assert.hpp"
#include "support/json_reader.hpp"
#include "support/json_writer.hpp"

namespace avglocal::core {

namespace {

/// Version 4: the header is the canonical scenario object
/// (core::write_scenario_json), which names the workload, the engine and the
/// numeric plan; points carry the edge-averaged partials (`edges`,
/// `trial_edge_sum`, `edge_histogram`). Every other version is rejected:
/// v3 has another header layout, and older artefacts lack the edge partials
/// and would merge into a report with zeroed edge measures.
constexpr std::uint64_t kShardFormatVersion = 4;

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

std::string shard_to_json(const ShardDocument& doc) {
  support::JsonWriter json;
  json.begin_object();
  json.key("avglocal_shard").value(kShardFormatVersion);
  json.key("scenario");
  write_scenario_json(json, doc.meta);
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
  if (version == nullptr) throw std::runtime_error("shard: not an avglocal shard artefact");
  if (version->as_u64() != kShardFormatVersion) {
    throw std::runtime_error("shard: unsupported artefact version " +
                             std::to_string(version->as_u64()) + " (expected version " +
                             std::to_string(kShardFormatVersion) + ")");
  }

  ShardDocument doc;
  doc.meta = scenario_from_json(root.at("scenario"));

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
    acc.edges = p.at("edges").as_u64();
    acc.trial_edge_sum = read_u64_array(p.at("trial_edge_sum"));
    acc.edge_histogram = local::RadiusHistogram(read_u64_array(p.at("edge_histogram")));
    if (acc.trial_sum.size() != acc.trial_max.size() || acc.node_sum.size() != acc.n ||
        acc.trial_edge_sum.size() != acc.trial_sum.size()) {
      throw std::runtime_error("shard: inconsistent point arrays");
    }
    doc.points.push_back(std::move(acc));
  }
  return doc;
}

std::vector<PointAccumulator> run_scenario_shard(const ResolvedScenario& resolved,
                                                 const ScenarioExecution& execution,
                                                 const SweepShard& shard) {
  AVGLOCAL_EXPECTS(!shard.empty());
  AVGLOCAL_EXPECTS(shard.point_end <= resolved.spec.ns.size());
  AVGLOCAL_EXPECTS(shard.trial_end <= resolved.spec.schedule.max_trials);

  std::vector<PointAccumulator> partials;
  partials.reserve(shard.point_end - shard.point_begin);
  for (std::size_t point = shard.point_begin; point < shard.point_end; ++point) {
    // A session per point, as in run_scenario: peak memory stays one point's.
    ScenarioSession session(resolved, execution);
    partials.push_back(session.run_trials(point, shard.trial_begin, shard.trial_end));
  }
  return partials;
}

ScenarioResult merge_shards(std::vector<ShardDocument> docs) {
  AVGLOCAL_EXPECTS(!docs.empty());
  const ScenarioSpec& header = docs.front().meta;
  for (const ShardDocument& doc : docs) {
    // The engine mismatch gets its own precise error: both engines' radii
    // are plain integers, so mixing a view artefact into a message plan (or
    // vice versa) is the likeliest - and least self-evident - mix-up.
    AVGLOCAL_REQUIRE_MSG(doc.meta.engine == header.engine,
                         "shard artefacts come from different engines ('" + header.engine +
                             "' vs '" + doc.meta.engine +
                             "'); view and message sweeps never merge");
    AVGLOCAL_REQUIRE_MSG(doc.meta == header, "shard artefacts describe different scenarios");
  }
  const ResolvedScenario resolved = resolve_scenario(header);
  AVGLOCAL_REQUIRE_MSG(resolved.spec == header,
                       "shard artefact header is not a canonical scenario");
  AVGLOCAL_REQUIRE_MSG(!header.schedule.adaptive(), "adaptive schedules are never sharded");

  // Every body must be exactly its rectangle, checked as the fabric
  // coordinator checks a unit: a point the header does not plan, or a
  // partial of another size or trial range, must not be dropped silently
  // or reported under this header.
  std::vector<std::vector<PointAccumulator*>> pieces(header.ns.size());
  for (ShardDocument& doc : docs) {
    const SweepShard& shard = doc.shard;
    AVGLOCAL_REQUIRE_MSG(!shard.empty() && shard.point_end <= header.ns.size() &&
                             doc.points.size() == shard.point_end - shard.point_begin,
                         "shard artefact points do not match its rectangle");
    for (std::size_t i = 0; i < doc.points.size(); ++i) {
      const std::size_t point = shard.point_begin + i;
      AVGLOCAL_REQUIRE_MSG(
          resolved.matches_partial(doc.points[i], point, shard.trial_begin, shard.trial_end),
          "shard artefact partials do not match its scenario at point " + std::to_string(point));
      pieces[point].push_back(&doc.points[i]);
    }
  }

  ScenarioResult result;
  result.spec = resolved.spec;
  result.points.reserve(pieces.size());
  for (std::vector<PointAccumulator*>& point_pieces : pieces) {
    // Stitch the point's partials back together in global trial order.
    AVGLOCAL_REQUIRE_MSG(!point_pieces.empty(), "no shard covers a sweep point");
    std::sort(point_pieces.begin(), point_pieces.end(),
              [](const PointAccumulator* a, const PointAccumulator* b) {
                return a->trial_begin < b->trial_begin;
              });
    AVGLOCAL_REQUIRE_MSG(point_pieces.front()->trial_begin == 0,
                         "shard trial ranges do not start at trial 0");
    PointAccumulator merged = std::move(*point_pieces.front());
    for (std::size_t i = 1; i < point_pieces.size(); ++i) {
      merged.append(std::move(*point_pieces[i]));
    }
    AVGLOCAL_REQUIRE_MSG(merged.trial_count() == header.schedule.max_trials,
                         "shard trial ranges do not cover the full plan");
    // Sharded plans are fixed-trial, so every point has converged.
    result.points.push_back(resolved.finish_point(merged, /*converged=*/true));
  }
  return result;
}

}  // namespace avglocal::core
