#include "src/analysis/collective_checker.h"

#include <map>
#include <set>
#include <utility>

#include "src/spmd/collectives.h"
#include "src/support/str_util.h"

namespace partir {
namespace analysis {
namespace {

constexpr char kMismatch[] = "collective-mismatch";
constexpr char kDeadlock[] = "collective-deadlock";

std::string OpSignature(OpKind kind, const std::vector<std::string>& axes,
                        const std::string& reduction, int64_t numel) {
  std::string sig = StrCat(OpKindName(kind), "[", StrJoin(axes, ","), "]");
  if (!reduction.empty()) sig = StrCat(sig, " ", reduction);
  return StrCat(sig, " numel=", numel);
}

}  // namespace

std::vector<DeviceTrace> ExtractCollectiveTraces(
    const exec::DeviceProgram& program, const Mesh& mesh,
    AnalysisReport& report) {
  const int64_t num_devices = mesh.NumDevices();
  std::vector<DeviceTrace> traces(num_devices);
  for (int64_t d = 0; d < num_devices; ++d) traces[d].device = d;

  for (size_t i = 0; i < program.instructions.size(); ++i) {
    const exec::Instruction& inst = program.instructions[i];
    std::string location =
        StrCat("instruction ", i, " (", OpKindName(inst.kind), ")");
    if (inst.collective == nullptr || inst.collective->groups == nullptr) {
      continue;  // non-collective or device-local all_slice
    }
    const CollectiveGroups& groups = *inst.collective->groups;
    if (inst.site_base < 0) {
      report.Error(kDeadlock, location,
                   "communicating collective has no rendezvous site");
      continue;
    }
    if (static_cast<int64_t>(groups.group_of.size()) != num_devices) {
      report.Error(kMismatch, location,
                   StrCat("replica groups cover ", groups.group_of.size(),
                          " device(s) but the mesh has ", num_devices));
      continue;
    }
    std::string reduction;
    if (inst.kind == OpKind::kAllReduce ||
        inst.kind == OpKind::kReduceScatter) {
      reduction = inst.collective->is_max ? "max" : "sum";
    }
    std::string signature =
        OpSignature(inst.kind, groups.axes, reduction, inst.result_numel);
    for (int64_t d = 0; d < num_devices; ++d) {
      CollectiveEvent event;
      event.index = static_cast<int>(traces[d].events.size());
      event.site = inst.site_base + groups.group_of[d];
      event.group_size = groups.group_size;
      event.signature = signature;
      event.location = location;
      traces[d].events.push_back(std::move(event));
    }
  }
  return traces;
}

void CheckCollectiveTraces(const std::vector<DeviceTrace>& traces,
                           AnalysisReport& report) {
  report.checkers_run.push_back("collectives");

  struct SiteState {
    int64_t group_size = 1;
    std::string signature;
    std::string location;
    int64_t first_device = -1;
    std::vector<int64_t> arrivals;
  };
  std::map<int64_t, SiteState> sites;

  for (const DeviceTrace& trace : traces) {
    std::set<int64_t> seen;
    for (const CollectiveEvent& event : trace.events) {
      auto [it, inserted] = sites.emplace(event.site, SiteState{});
      SiteState& site = it->second;
      if (inserted) {
        site.group_size = event.group_size;
        site.signature = event.signature;
        site.location = event.location;
        site.first_device = trace.device;
      } else {
        if (event.signature != site.signature) {
          report
              .Error(kMismatch, event.location,
                     StrCat("devices disagree on the collective at "
                            "rendezvous site ",
                            event.site))
              .notes = {StrCat("device ", site.first_device, " issues ",
                               site.signature),
                        StrCat("device ", trace.device, " issues ",
                               event.signature)};
        }
        if (event.group_size != site.group_size) {
          report.Error(
              kMismatch, event.location,
              StrCat("devices disagree on the replica-group size of site ",
                     event.site, ": ", site.group_size, " vs ",
                     event.group_size));
        }
      }
      if (!seen.insert(event.site).second) {
        report.Error(
            kDeadlock, event.location,
            StrCat("device ", trace.device, " arrives twice at rendezvous "
                   "site ", event.site,
                   ": the second arrival waits for peers that already left"));
      }
      site.arrivals.push_back(trace.device);
    }
  }

  for (const auto& [site_id, site] : sites) {
    if (static_cast<int64_t>(site.arrivals.size()) == site.group_size) {
      continue;
    }
    Diagnostic& diag = report.Error(
        kDeadlock, site.location,
        StrCat("rendezvous site ", site_id, " expects ", site.group_size,
               " participant(s) but ", site.arrivals.size(), " arrive: ",
               static_cast<int64_t>(site.arrivals.size()) < site.group_size
                   ? "every arriving device blocks forever"
                   : "an extra device joins a full group"));
    diag.notes.push_back(
        StrCat("arriving devices: [", StrJoin(site.arrivals, ","), "] for '",
               site.signature, "'"));
  }

  // Cross-site rendezvous order: site A -> site B whenever some device
  // arrives at A immediately before B. Per-device traces are total orders,
  // so the union of consecutive edges has the same transitive closure as
  // the full ordering; a cycle in it is a circular wait.
  std::map<int64_t, std::set<int64_t>> edges;
  std::map<std::pair<int64_t, int64_t>, int64_t> witness;
  for (const DeviceTrace& trace : traces) {
    for (size_t k = 1; k < trace.events.size(); ++k) {
      int64_t from = trace.events[k - 1].site;
      int64_t to = trace.events[k].site;
      if (from == to) continue;
      if (edges[from].insert(to).second) {
        witness[{from, to}] = trace.device;
      }
    }
  }

  // Iterative DFS; the first back edge found is reported as the cycle.
  std::map<int64_t, int> color;  // 0 white, 1 gray, 2 black
  for (const auto& edge_entry : edges) {
    const int64_t root = edge_entry.first;
    if (color[root] != 0) continue;
    std::vector<std::pair<int64_t, std::set<int64_t>::const_iterator>> stack;
    color[root] = 1;
    stack.push_back({root, edges[root].begin()});
    while (!stack.empty()) {
      auto& [node, it] = stack.back();
      if (it == edges[node].end()) {
        color[node] = 2;
        stack.pop_back();
        continue;
      }
      int64_t next = *it++;
      auto next_edges = edges.find(next);
      if (color[next] == 1) {
        // Reconstruct the cycle from the gray stack.
        std::vector<int64_t> cycle;
        size_t start = 0;
        for (size_t s = 0; s < stack.size(); ++s) {
          if (stack[s].first == next) start = s;
        }
        for (size_t s = start; s < stack.size(); ++s) {
          cycle.push_back(stack[s].first);
        }
        cycle.push_back(next);
        Diagnostic& diag = report.Error(
            kDeadlock, sites.count(next) ? sites[next].location : "",
            StrCat("rendezvous order cycle through ", cycle.size() - 1,
                   " site(s): every device on it waits at a site whose "
                   "peers are blocked further along the cycle"));
        std::string path;
        for (size_t s = 0; s + 1 < cycle.size(); ++s) {
          auto w = witness.find({cycle[s], cycle[s + 1]});
          path = StrCat(path, s == 0 ? "site " : " -> site ", cycle[s + 1],
                        w == witness.end()
                            ? ""
                            : StrCat(" (device ", w->second, ")"));
        }
        diag.notes.push_back(StrCat("site ", cycle[0], " -> ", path));
        return;  // one cycle is proof enough; avoid diagnostic spam
      }
      if (color[next] == 0 && next_edges != edges.end()) {
        color[next] = 1;
        stack.push_back({next, next_edges->second.begin()});
      } else if (color[next] == 0) {
        color[next] = 2;  // sink: no outgoing edges
      }
    }
  }
}

}  // namespace analysis
}  // namespace partir
