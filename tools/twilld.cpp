// twilld — Twill as a service.
//
// Single-process HTTP daemon over src/serve: accepts CompileRequest
// documents (the same ones `twillc --request` runs), executes them on a
// worker pool, and serves reports + cache/outcome counters behind the v1
// JSON API (see src/serve/service.h for the endpoint table).
//
//   $ twilld --port 8080 --jobs 4
//   twilld: listening on http://127.0.0.1:8080
//   $ curl -s -X POST http://127.0.0.1:8080/v1/jobs -d @request.json
//   {"job_id": 1, "state": "queued"}
//
// SIGINT/SIGTERM stop the accept loops; in-flight jobs finish before the
// process exits 0. Sharding note: every cache key starts with the source
// hash (src/driver/request.h), so a front-end can shard requests across
// daemon processes by that prefix without splitting any cache's hot set.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "src/serve/http.h"
#include "src/serve/service.h"

namespace {

void printUsage(std::FILE* to) {
  std::fprintf(to,
               "usage: twilld [options]\n"
               "\n"
               "Serves the Twill compile+simulate pipeline over HTTP (v1 JSON API):\n"
               "  POST /v1/jobs            submit a CompileRequest document\n"
               "  GET  /v1/jobs/<id>       poll job state\n"
               "  GET  /v1/jobs/<id>/report\n"
               "                           fetch the report (same document as\n"
               "                           `twillc --json`)\n"
               "  GET  /v1/stats           cache hit/miss and outcome counters\n"
               "  GET  /v1/metrics         Prometheus text exposition (latency\n"
               "                           histograms, cache/outcome counters,\n"
               "                           worker-pool gauges)\n"
               "  GET  /v1/healthz         liveness probe (build + dispatcher info)\n"
               "\n"
               "options:\n"
               "  --host ADDR            listen address (default 127.0.0.1)\n"
               "  --port N               listen port (default 0 = ephemeral)\n"
               "  --port-file FILE       write the bound port to FILE (for\n"
               "                         scripts using --port 0)\n"
               "  --jobs N               worker threads (default 1)\n"
               "  --max-body-bytes N     request body cap (default 1048576)\n"
               "  --max-timeout-ms N     server-side wall-budget ceiling per job;\n"
               "                         requests can only tighten it (default 0 =\n"
               "                         no ceiling)\n"
               "  --max-memory-mb N      server-side simulated-memory ceiling in\n"
               "                         MiB (default 0 = no ceiling beyond the\n"
               "                         request's own)\n"
               "  --cache-entries N      response/artifact cache capacity\n"
               "                         (default 64)\n"
               "  --cache-bytes N        approximate byte budget for the caches\n"
               "                         (artifact entries counted by their kept\n"
               "                         module's arena footprint; default 0 =\n"
               "                         entries-only bound)\n"
               "  --trace-dir DIR        write one Chrome trace-event JSON per job\n"
               "                         (job-<id>.trace.json: queued/run spans in\n"
               "                         wall us + the job's compile stages and\n"
               "                         cycle-stamped sim rows); DIR must exist\n"
               "\n"
               "SIGINT/SIGTERM shut the daemon down cleanly (exit 0).\n");
}

twill::HttpServer* g_server = nullptr;

// HttpServer::stop() is one atomic store — async-signal-safe.
void onSignal(int) {
  if (g_server) g_server->stop();
}

}  // namespace

int main(int argc, char** argv) {
  twill::HttpServerConfig hcfg;
  twill::ServiceConfig scfg;
  std::string portFile;

  auto needValue = [&](int& i, const char* flag) -> const char* {
    if (i + 1 >= argc) {
      std::fprintf(stderr, "twilld: %s requires a value\n", flag);
      std::exit(2);
    }
    return argv[++i];
  };
  auto parseUnsigned = [&](int& i, const char* flag) -> unsigned long {
    const char* v = needValue(i, flag);
    char* end = nullptr;
    unsigned long n = std::strtoul(v, &end, 10);
    if (end == v || *end != '\0' || v[0] == '-') {
      std::fprintf(stderr, "twilld: %s expects an unsigned integer, got '%s'\n", flag, v);
      std::exit(2);
    }
    return n;
  };

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      printUsage(stdout);
      return 0;
    } else if (arg == "--host") {
      hcfg.host = needValue(i, "--host");
    } else if (arg == "--port") {
      unsigned long p = parseUnsigned(i, "--port");
      if (p > 65535) {
        std::fprintf(stderr, "twilld: --port must be in [0, 65535]\n");
        return 2;
      }
      hcfg.port = static_cast<uint16_t>(p);
    } else if (arg == "--port-file") {
      portFile = needValue(i, "--port-file");
    } else if (arg == "--jobs") {
      unsigned long j = parseUnsigned(i, "--jobs");
      if (j < 1) {
        std::fprintf(stderr, "twilld: --jobs must be >= 1\n");
        return 2;
      }
      scfg.jobs = static_cast<unsigned>(j);
    } else if (arg == "--max-body-bytes") {
      hcfg.maxBodyBytes = parseUnsigned(i, "--max-body-bytes");
    } else if (arg == "--max-timeout-ms") {
      scfg.maxTimeoutMs = static_cast<double>(parseUnsigned(i, "--max-timeout-ms"));
    } else if (arg == "--max-memory-mb") {
      unsigned long mb = parseUnsigned(i, "--max-memory-mb");
      if (mb > 2048) {
        std::fprintf(stderr, "twilld: --max-memory-mb must be in [0, 2048]\n");
        return 2;
      }
      scfg.maxMemoryBytes = static_cast<uint32_t>(mb << 20);
    } else if (arg == "--cache-entries") {
      scfg.maxCacheEntries = parseUnsigned(i, "--cache-entries");
    } else if (arg == "--cache-bytes") {
      scfg.maxCacheBytes = parseUnsigned(i, "--cache-bytes");
    } else if (arg == "--trace-dir") {
      scfg.traceDir = needValue(i, "--trace-dir");
    } else {
      std::fprintf(stderr, "twilld: unknown option '%s'\n", arg.c_str());
      printUsage(stderr);
      return 2;
    }
  }

  twill::HttpServer server(hcfg);
  std::string error;
  if (!server.start(error)) {
    std::fprintf(stderr, "twilld: %s\n", error.c_str());
    return 1;
  }

  if (!portFile.empty()) {
    std::FILE* f = std::fopen(portFile.c_str(), "w");
    if (!f) {
      std::fprintf(stderr, "twilld: cannot write '%s'\n", portFile.c_str());
      return 1;
    }
    std::fprintf(f, "%u\n", server.port());
    std::fclose(f);
  }

  twill::TwillService service(scfg);

  g_server = &server;
  std::signal(SIGINT, onSignal);
  std::signal(SIGTERM, onSignal);

  std::printf("twilld: listening on http://%s:%u\n", hcfg.host.c_str(), server.port());
  std::fflush(stdout);

  server.serve([&service](const twill::HttpRequest& req) { return service.handle(req); });

  // Let in-flight jobs finish before the service (and its worker pool) is
  // torn down, so a shutdown never kills a half-written job.
  service.drain();
  std::printf("twilld: shut down\n");
  return 0;
}
