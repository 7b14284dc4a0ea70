#include "src/explore/explorer.h"

#include <cinttypes>
#include <cstdio>
#include <memory>

#include "src/explore/pool.h"
#include "src/obs/trace.h"
#include "src/support/json.h"

namespace twill {
namespace {

uint64_t areaTotal(const AreaEstimate& a) {
  return static_cast<uint64_t>(a.luts) + a.dsps + a.brams;
}

void fillObjectives(PointResult& p) {
  p.objectives.cycles = p.report.twill.cycles;
  p.objectives.area = areaTotal(p.report.areas.twillTotal);
  p.objectives.power = p.report.powerTwill;
}

DriverOptions optionsFor(const ExploreRequest& req, const ConfigPoint& point) {
  DriverOptions opts;
  opts.inlineThreshold = req.inlineThreshold;
  opts.hls = req.hls;
  opts.dswp = point.dswp;
  opts.sim = point.sim;
  opts.limits = req.limits;
  opts.unseedSemaphores = req.unseedSemaphores;
  return opts;
}

void takeReport(PointResult& p, BenchmarkReport&& rep) {
  p.report = std::move(rep);
  p.ok = p.report.ok;
  p.error = p.report.error;
  if (p.ok) fillObjectives(p);
}

/// Evaluates one compile group: points[first .. first+count) of `res`,
/// which share point.dswp. The anchor (first point) runs the full driver
/// flow; the rest re-simulate its kept artifacts under their own SimConfig.
void evalGroup(const ExploreRequest& req, ExploreResult& res, size_t first, size_t count) {
  // Per-point sim-trace capture: a fresh recorder attached through
  // SimConfig::trace only (never the thread-local slot), so the captured
  // events are all cycle-stamped — the JSON is a pure function of the point,
  // independent of which worker runs the group.
  auto captureInto = [&req](SimConfig& sim, std::unique_ptr<TraceRecorder>& rec) {
    if (!req.captureTraces) return;
    rec = std::make_unique<TraceRecorder>();
    sim.trace = rec.get();
  };
  PointResult& anchor = res.points[first];
  DriverOptions opts = optionsFor(req, anchor.point);
  opts.keepTwillArtifacts = count > 1;
  std::unique_ptr<TraceRecorder> anchorRec;
  captureInto(opts.sim, anchorRec);
  takeReport(anchor, runBenchmark(res.name, req.source, opts));
  if (anchorRec) anchor.traceJson = anchorRec->toJson();
  std::shared_ptr<TwillArtifacts> art = std::move(anchor.report.twillArtifacts);

  if (count == 1) return;
  if (!anchor.ok || !art) {
    // Only the Twill co-sim reads the sim axes, so its failures
    // (twillSimFailure, classified by acceptTwillOutcome) get their own
    // full evaluation per point — a sim failure at one queue configuration
    // says nothing about the others. Every other anchor failure (compile,
    // verification, pure flows) is shared by the whole group and is copied
    // rather than deterministically reproduced count-1 more times.
    const bool simDependent = anchor.ok || anchor.report.twillSimFailure;
    for (size_t k = 1; k < count; ++k) {
      PointResult& p = res.points[first + k];
      if (simDependent) {
        DriverOptions po = optionsFor(req, p.point);
        std::unique_ptr<TraceRecorder> rec;
        captureInto(po.sim, rec);
        takeReport(p, runBenchmark(res.name, req.source, po));
        if (rec) p.traceJson = rec->toJson();
      } else {
        p.report = anchor.report;
        p.ok = false;
        p.error = anchor.error;
      }
    }
    return;
  }

  SimProgram prog(*art->module, art->schedules);  // one decode for the group
  for (size_t k = 1; k < count; ++k) {
    PointResult& p = res.points[first + k];
    SimConfig sim = p.point.sim;
    std::unique_ptr<TraceRecorder> rec;
    captureInto(sim, rec);
    takeReport(p, resimulateTwill(anchor.report, *art, prog, sim, req.limits));
    if (rec) p.traceJson = rec->toJson();
  }
}

struct GroupTask {
  size_t req = 0;    // request index
  size_t first = 0;  // first point index in its result
  size_t count = 0;  // points in the group
};

}  // namespace

std::vector<ExploreResult> exploreAll(const std::vector<ExploreRequest>& reqs, unsigned jobs) {
  std::vector<ExploreResult> results(reqs.size());
  std::vector<GroupTask> tasks;
  for (size_t r = 0; r < reqs.size(); ++r) {
    ExploreResult& res = results[r];
    res.name = reqs[r].name;
    res.space = reqs[r].space;
    if (!res.space.validate(res.error)) continue;
    std::vector<ConfigPoint> pts = res.space.enumerate();
    res.points.resize(pts.size());
    for (size_t i = 0; i < pts.size(); ++i) res.points[i].point = pts[i];
    const size_t perGroup = res.space.pointsPerGroup();
    for (size_t g = 0; g < res.space.groupCount(); ++g)
      tasks.push_back({r, g * perGroup, perGroup});
  }

  runIndexedTasks(jobs, tasks.size(), [&](size_t ti) {
    const GroupTask& t = tasks[ti];
    evalGroup(reqs[t.req], results[t.req], t.first, t.count);
  });

  for (ExploreResult& res : results) {
    if (!res.error.empty()) continue;  // invalid space
    res.ok = !res.points.empty();
    for (const PointResult& p : res.points)
      if (!p.ok) {
        res.ok = false;
        if (res.error.empty())
          res.error = "point " + std::to_string(p.point.index) + ": " + p.error;
      }
    // Frontier over the evaluated points only; dominated-point pruning.
    std::vector<Objectives> objs;
    std::vector<size_t> okIdx;
    for (size_t i = 0; i < res.points.size(); ++i)
      if (res.points[i].ok) {
        objs.push_back(res.points[i].objectives);
        okIdx.push_back(i);
      }
    for (size_t f : paretoFrontier(objs)) {
      res.frontier.push_back(okIdx[f]);
      res.points[okIdx[f]].onFrontier = true;
    }
  }
  return results;
}

ExploreResult explore(const ExploreRequest& req, unsigned jobs) {
  return exploreAll({req}, jobs)[0];
}

namespace {

void emitSpace(JsonWriter& w, const ParamSpace& s) {
  w.key("space");
  w.beginObject();
  auto axis = [&w](const char* key, const std::vector<unsigned>& vs) {
    w.key(key);
    w.beginArray();
    for (unsigned v : vs) w.value(v);
    w.endArray();
  };
  axis("partitions", s.partitions);
  w.key("sw_fractions");
  w.beginArray();
  for (double f : s.swFractions) w.value(f);
  w.endArray();
  axis("queue_capacities", s.queueCapacities);
  axis("queue_latencies", s.queueLatencies);
  axis("processors", s.processorCounts);
  w.endObject();
}

void emitPoint(JsonWriter& w, const PointResult& p) {
  w.beginObject();
  w.field("index", static_cast<uint64_t>(p.point.index));
  w.key("config");
  w.beginObject();
  w.field("partitions", p.point.dswp.numPartitions);
  w.field("sw_fraction", p.point.dswp.swFraction);
  w.field("queue_capacity", p.point.sim.queueCapacity);
  w.field("queue_latency", p.point.sim.queueLatency);
  w.field("processors", p.point.sim.numProcessors);
  w.endObject();
  w.field("ok", p.ok);
  if (!p.ok) {
    w.field("error", p.error);
    w.endObject();
    return;
  }
  w.field("cycles", p.report.twill.cycles);
  w.field("sw_cycles", p.report.sw.cycles);
  w.field("hw_cycles", p.report.hw.cycles);
  w.key("area");
  w.beginObject();
  w.field("luts", p.report.areas.twillTotal.luts);
  w.field("dsps", p.report.areas.twillTotal.dsps);
  w.field("brams", p.report.areas.twillTotal.brams);
  w.field("total", p.objectives.area);
  w.endObject();
  w.field("power_twill", p.report.powerTwill);
  w.field("speedup_twill_vs_sw", p.report.speedupTwillvsSW());
  w.field("queues", p.report.queues);
  w.field("hw_threads", p.report.hwThreads);
  w.field("on_frontier", p.onFrontier);
  w.endObject();
}

}  // namespace

std::string exploreToJson(const std::vector<ExploreResult>& results) {
  JsonWriter w;
  w.beginObject();
  w.field("explore", "twill-design-space");
  w.key("kernels");
  w.beginArray();
  for (const ExploreResult& res : results) {
    w.beginObject();
    w.field("name", res.name);
    w.field("ok", res.ok);
    if (!res.error.empty()) w.field("error", res.error);
    emitSpace(w, res.space);
    w.key("points");
    w.beginArray();
    for (const PointResult& p : res.points) emitPoint(w, p);
    w.endArray();
    // The frontier, summarized for direct consumption: every non-dominated
    // configuration with its objective vector.
    w.key("frontier");
    w.beginArray();
    for (size_t i : res.frontier) {
      const PointResult& p = res.points[i];
      w.beginObject();
      w.field("index", static_cast<uint64_t>(p.point.index));
      w.field("cycles", p.objectives.cycles);
      w.field("area", p.objectives.area);
      w.field("power", p.objectives.power);
      w.endObject();
    }
    w.endArray();
    w.key("summary");
    w.beginObject();
    w.field("points", static_cast<uint64_t>(res.points.size()));
    uint64_t okCount = 0;
    for (const PointResult& p : res.points) okCount += p.ok ? 1 : 0;
    w.field("points_ok", okCount);
    w.field("frontier_size", static_cast<uint64_t>(res.frontier.size()));
    if (!res.frontier.empty()) {
      // Fastest frontier point: the headline "best achievable" number. The
      // index is the point's configuration index (like every other "index"
      // field in the document), not its position in the points array.
      size_t best = res.frontier[0];
      for (size_t i : res.frontier)
        if (res.points[i].objectives.cycles < res.points[best].objectives.cycles) best = i;
      w.field("best_cycles", res.points[best].objectives.cycles);
      w.field("best_cycles_index", static_cast<uint64_t>(res.points[best].point.index));
    }
    w.endObject();
    w.endObject();
  }
  w.endArray();
  w.endObject();
  return w.str();
}

namespace {

/// RFC-4180 quoting for the one free-text column (a source-file basename
/// can contain commas or quotes); everything else is numeric.
std::string csvField(const std::string& s) {
  if (s.find_first_of(",\"\n") == std::string::npos) return s;
  std::string out = "\"";
  for (char c : s) {
    if (c == '"') out.push_back('"');  // RFC 4180: embedded quotes double
    out.push_back(c);
  }
  out.push_back('"');
  return out;
}

}  // namespace

std::string exploreToCsv(const std::vector<ExploreResult>& results) {
  std::string out =
      "kernel,index,partitions,sw_fraction,queue_capacity,queue_latency,processors,"
      "ok,cycles,sw_cycles,hw_cycles,area_luts,area_dsps,area_brams,area_total,"
      "power_twill,speedup_twill_vs_sw,on_frontier\n";
  char buf[256];
  for (const ExploreResult& res : results) {
    const std::string kernel = csvField(res.name);
    for (const PointResult& p : res.points) {
      out += kernel;
      std::snprintf(buf, sizeof(buf), ",%zu,%u,%.6g,%u,%u,%u", p.point.index,
                    p.point.dswp.numPartitions, p.point.dswp.swFraction,
                    p.point.sim.queueCapacity, p.point.sim.queueLatency,
                    p.point.sim.numProcessors);
      out += buf;
      if (p.ok) {
        std::snprintf(buf, sizeof(buf),
                      ",1,%" PRIu64 ",%" PRIu64 ",%" PRIu64 ",%u,%u,%u,%" PRIu64
                      ",%.6g,%.6g,%d\n",
                      p.report.twill.cycles, p.report.sw.cycles, p.report.hw.cycles,
                      p.report.areas.twillTotal.luts, p.report.areas.twillTotal.dsps,
                      p.report.areas.twillTotal.brams, p.objectives.area, p.report.powerTwill,
                      p.report.speedupTwillvsSW(), p.onFrontier ? 1 : 0);
        out += buf;
      } else {
        out += ",0,,,,,,,,,,0\n";
      }
    }
  }
  return out;
}

}  // namespace twill
