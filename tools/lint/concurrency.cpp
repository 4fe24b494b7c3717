// Concurrency half of fifl-lint: the four lock-discipline rules (R6-R9).
//
//   R6 lock-order          every std::mutex / std::condition_variable /
//                          util::Mutex declaration must carry a
//                          `// lock-order: <name> [before <a>, <b>]`
//                          annotation; the rule builds a cross-TU
//                          acquisition graph from lock_guard / unique_lock /
//                          scoped_lock / MutexLock sites and reports
//                          unannotated mutexes, nested acquisitions that
//                          contradict or are missing from the declared
//                          order, and cycles in the declared hierarchy.
//   R7 cv-wait-predicate   condition_variable wait/wait_for/wait_until
//                          without a predicate overload (the PR 8 hot-spin
//                          bug class: a bare wait_for in the FaultyTransport
//                          delivery loop starved sender heartbeats).
//   R8 guarded-by          fields listed in a mutex's `// guards a_, b_`
//                          comment may only be touched in a scope that
//                          holds that mutex (same-TU heuristic tracking).
//   R9 blocking-under-lock sleep_for / join / socket send/recv/connect
//                          while any tracked lock is held.
//
// Like R1-R3 and R5 these are line-oriented heuristics over blanked source,
// not a C++ front end: lock scopes are tracked by brace depth, lock sites
// must fit on one line, and instance identity is invisible (two locks of the
// same declared name are one graph node).  The Clang -Werror=thread-safety
// lane in scripts/ci_static.sh covers the same discipline with a real front
// end where clang is installed; what neither can see is listed in DESIGN.md
// "Concurrency discipline".
#include "lint.hpp"

#include <algorithm>
#include <cctype>
#include <map>
#include <regex>
#include <set>
#include <tuple>

namespace fifl::lint {

namespace {

// --- declaration + annotation parsing ---------------------------------------

struct LockDecl {
  std::string file;        // rel_path of the declaring file
  std::size_t line = 0;    // 1-based declaration line
  std::string var;         // variable / member name
  bool is_cv = false;      // condition_variable (not part of the graph)
  bool annotated = false;  // carries a lock-order: annotation
  std::string order_name;  // graph node name from the annotation
  std::vector<std::string> before;  // declared successors in the hierarchy
  std::vector<std::string> guards;  // fields from the `guards` list
  bool malformed = false;
};

// `std::mutex m_;`, `mutable util::Mutex mu_;`, `std::condition_variable c_;`
// The leading boundary excludes words like timed_mutex matching `mutex` and
// `::` qualifiers are consumed explicitly so `util::Mutex` resolves.
const std::regex kLockableDecl(
    R"((?:^|[^\w])(?:\w+\s*::\s*)*(mutex|recursive_mutex|shared_mutex|timed_mutex|recursive_timed_mutex|condition_variable|condition_variable_any|Mutex)\s+(\w+)\s*(?:;|\{\s*\}\s*;|=))");

bool is_identifier(const std::string& s) {
  if (s.empty()) return false;
  if (std::isdigit(static_cast<unsigned char>(s[0]))) return false;
  return std::all_of(s.begin(), s.end(), [](char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
  });
}

bool code_blank(const std::string& code_line) {
  return std::all_of(code_line.begin(), code_line.end(), [](char c) {
    return std::isspace(static_cast<unsigned char>(c));
  });
}

std::vector<std::string> split_ident_list(const std::string& text) {
  std::vector<std::string> out;
  std::string cur;
  for (char c : text) {
    if (std::isalnum(static_cast<unsigned char>(c)) || c == '_') {
      cur += c;
    } else {
      if (!cur.empty()) out.push_back(cur);
      cur.clear();
      if (c != ',' && c != ' ' && c != '\t') break;  // end of the list
    }
  }
  if (!cur.empty()) out.push_back(cur);
  return out;
}

// Parse `lock-order: <name> [before <a>, <b>]` and `guards <f1>, <f2>` out
// of one comment string into `d`.  Returns true if anything was found.
bool parse_annotation_comment(const std::string& comment, LockDecl& d) {
  bool found = false;
  const std::size_t lo = comment.find("lock-order:");
  if (lo != std::string::npos) {
    found = true;
    std::string spec = comment.substr(lo + 11);
    const std::size_t semi = spec.find(';');
    if (semi != std::string::npos) spec = spec.substr(0, semi);
    std::vector<std::string> toks;
    std::string cur;
    for (char c : spec + " ") {
      if (std::isspace(static_cast<unsigned char>(c)) || c == ',') {
        if (!cur.empty()) toks.push_back(cur);
        cur.clear();
      } else {
        cur += c;
      }
    }
    if (toks.empty() || !is_identifier(toks[0])) {
      d.malformed = true;
    } else {
      d.annotated = true;
      d.order_name = toks[0];
      if (toks.size() > 1) {
        if (toks[1] != "before") {
          d.malformed = true;
        } else {
          for (std::size_t i = 2; i < toks.size(); ++i) {
            if (!is_identifier(toks[i])) {
              d.malformed = true;
              break;
            }
            d.before.push_back(toks[i]);
          }
          if (d.before.empty()) d.malformed = true;
        }
      }
    }
  }
  // `guards f1_, f2_` — word match so prose containing "guards" elsewhere in
  // the file never reaches here (we only see the decl's annotation window).
  const std::regex kGuards(R"((?:^|[^\w])guards\s+(.*))");
  std::smatch m;
  if (std::regex_search(comment, m, kGuards)) {
    found = true;
    for (const std::string& field : split_ident_list(m[1].str()))
      d.guards.push_back(field);
  }
  return found;
}

// Annotations attach to the declaration line's own comment, or to a run of
// comment-only lines directly above it (up to 3), stopping at the first line
// that carries code so a neighbouring declaration's annotation is never
// borrowed.
void attach_annotations(const SourceFile& f, std::size_t decl_idx,
                        LockDecl& d) {
  if (parse_annotation_comment(f.comment[decl_idx], d)) return;
  for (std::size_t back = 1; back <= 3 && back <= decl_idx; ++back) {
    const std::size_t i = decl_idx - back;
    if (!code_blank(f.code[i])) break;
    if (parse_annotation_comment(f.comment[i], d)) return;
  }
}

std::vector<LockDecl> collect_decls(const SourceFile& f) {
  std::vector<LockDecl> decls;
  for (std::size_t i = 0; i < f.code.size(); ++i) {
    for (auto it = std::sregex_iterator(f.code[i].begin(), f.code[i].end(),
                                        kLockableDecl);
         it != std::sregex_iterator(); ++it) {
      LockDecl d;
      d.file = f.rel_path;
      d.line = i + 1;
      d.var = (*it)[2].str();
      const std::string type = (*it)[1].str();
      d.is_cv = type.rfind("condition_variable", 0) == 0;
      attach_annotations(f, i, d);
      decls.push_back(std::move(d));
    }
  }
  return decls;
}

// --- TU pairing & name resolution -------------------------------------------

std::string tu_stem(const std::string& rel) {
  const std::size_t dot = rel.find_last_of('.');
  return dot == std::string::npos ? rel : rel.substr(0, dot);
}

struct Resolver {
  // var name -> decl; ambiguous names are dropped and reported once.
  std::map<std::string, const LockDecl*> by_var;
};

// --- lock-scope tracking ----------------------------------------------------

struct ActiveGuard {
  const LockDecl* decl = nullptr;  // resolved target (never null once pushed)
  std::string guard_var;           // RAII object name, for .unlock()/.lock()
  int depth = 0;                   // brace depth at acquisition
  bool engaged = true;             // unique_lock can disengage mid-scope
  std::size_t line = 0;            // acquisition line (1-based)
};

struct Acquisition {
  std::size_t line = 0;
  const LockDecl* decl = nullptr;
  std::vector<const LockDecl*> held;  // engaged locks at the moment
};

struct ScanResult {
  // Engaged lock set after each line has been processed.
  std::vector<std::vector<const LockDecl*>> held_after;
  std::vector<Acquisition> acquisitions;
  // Lock sites whose target could not be mapped to a declaration.
  std::vector<std::pair<std::size_t, std::string>> unresolved;
};

const std::regex kGuardSite(
    R"((?:^|[^\w])(lock_guard|unique_lock|scoped_lock|shared_lock|MutexLock)\s*(?:<[^;()]*>)?\s+(\w+)\s*\(([^;]*)\))");
const std::regex kGuardToggle(R"((\w+)\s*\.\s*(lock|unlock)\s*\(\s*\))");

// `peer->mutex` / `this->mutex_` / `&mu_` -> trailing member name.
std::string strip_target(std::string t) {
  const auto ws_begin = t.find_first_not_of(" \t&*");
  t = ws_begin == std::string::npos ? "" : t.substr(ws_begin);
  const auto ws_end = t.find_last_not_of(" \t");
  if (ws_end != std::string::npos) t = t.substr(0, ws_end + 1);
  const std::size_t sep = t.find_last_of(".>");
  if (sep != std::string::npos) t = t.substr(sep + 1);
  return t;
}

// Split a guard-constructor argument list on top-level commas (scoped_lock
// takes several mutexes; unique_lock's defer/adopt tags are filtered out).
std::vector<std::string> split_args(const std::string& args) {
  std::vector<std::string> out;
  std::string cur;
  int depth = 0;
  for (char c : args) {
    if (c == '(' || c == '[' || c == '{' || c == '<') ++depth;
    else if (c == ')' || c == ']' || c == '}' || c == '>') --depth;
    if (c == ',' && depth == 0) {
      out.push_back(cur);
      cur.clear();
    } else {
      cur += c;
    }
  }
  if (!cur.empty()) out.push_back(cur);
  std::vector<std::string> filtered;
  for (const std::string& a : out) {
    if (a.find("defer_lock") != std::string::npos ||
        a.find("adopt_lock") != std::string::npos ||
        a.find("try_to_lock") != std::string::npos)
      continue;
    filtered.push_back(a);
  }
  return filtered;
}

ScanResult scan_lock_scopes(const SourceFile& f, const Resolver& res) {
  ScanResult out;
  out.held_after.resize(f.code.size());
  std::vector<ActiveGuard> guards;
  int depth = 0;

  struct Event {
    std::size_t offset;
    enum Kind { kAcquire, kToggle } kind;
    // acquire
    std::string guard_var;
    std::vector<std::string> targets;
    // toggle
    std::string toggle_var;
    bool engage = false;
  };

  for (std::size_t li = 0; li < f.code.size(); ++li) {
    const std::string& line = f.code[li];
    std::vector<Event> events;
    for (auto it = std::sregex_iterator(line.begin(), line.end(), kGuardSite);
         it != std::sregex_iterator(); ++it) {
      Event e;
      e.offset = static_cast<std::size_t>(it->position(0));
      e.kind = Event::kAcquire;
      e.guard_var = (*it)[2].str();
      e.targets = split_args((*it)[3].str());
      events.push_back(std::move(e));
    }
    for (auto it =
             std::sregex_iterator(line.begin(), line.end(), kGuardToggle);
         it != std::sregex_iterator(); ++it) {
      Event e;
      e.offset = static_cast<std::size_t>(it->position(0));
      e.kind = Event::kToggle;
      e.toggle_var = (*it)[1].str();
      e.engage = (*it)[2].str() == "lock";
      events.push_back(std::move(e));
    }
    std::sort(events.begin(), events.end(),
              [](const Event& a, const Event& b) { return a.offset < b.offset; });

    std::size_t next_event = 0;
    for (std::size_t ci = 0; ci <= line.size(); ++ci) {
      while (next_event < events.size() &&
             events[next_event].offset == ci) {
        const Event& e = events[next_event++];
        if (e.kind == Event::kAcquire) {
          for (const std::string& raw : e.targets) {
            const std::string name = strip_target(raw);
            const auto found = res.by_var.find(name);
            if (found == res.by_var.end()) {
              out.unresolved.emplace_back(li + 1, name);
              continue;
            }
            Acquisition acq;
            acq.line = li + 1;
            acq.decl = found->second;
            for (const ActiveGuard& g : guards)
              if (g.engaged) acq.held.push_back(g.decl);
            out.acquisitions.push_back(std::move(acq));
            guards.push_back({found->second, e.guard_var, depth, true, li + 1});
          }
        } else {
          // Re-engage / disengage the most recent guard with this name
          // (unique_lock's lk.unlock() ... lk.lock() window).
          for (auto g = guards.rbegin(); g != guards.rend(); ++g) {
            if (g->guard_var == e.toggle_var) {
              g->engaged = e.engage;
              break;
            }
          }
        }
      }
      if (ci == line.size()) break;
      const char c = line[ci];
      if (c == '{') {
        ++depth;
      } else if (c == '}') {
        if (depth > 0) --depth;
        while (!guards.empty() && guards.back().depth > depth)
          guards.pop_back();
      }
    }
    for (const ActiveGuard& g : guards)
      if (g.engaged) out.held_after[li].push_back(g.decl);
  }
  return out;
}

// --- R7 helpers -------------------------------------------------------------

// Count top-level arguments of a call whose open paren sits at
// (line_idx, paren_pos); the call may continue over a few following lines.
int count_call_args(const SourceFile& f, std::size_t line_idx,
                    std::size_t paren_pos) {
  int depth = 0;
  int args = 0;
  bool any_content = false;
  for (std::size_t li = line_idx; li < f.code.size() && li < line_idx + 12;
       ++li) {
    const std::string& line = f.code[li];
    for (std::size_t ci = li == line_idx ? paren_pos : 0; ci < line.size();
         ++ci) {
      const char c = line[ci];
      if (c == '(' || c == '[' || c == '{') {
        ++depth;
      } else if (c == ')' || c == ']' || c == '}') {
        --depth;
        if (depth == 0) return any_content ? args + 1 : 0;
      } else if (c == ',' && depth == 1) {
        ++args;
      } else if (depth >= 1 && !std::isspace(static_cast<unsigned char>(c))) {
        any_content = true;
      }
    }
  }
  return any_content ? args + 1 : 0;  // unbalanced: best effort
}

// --- R9 patterns ------------------------------------------------------------

struct BlockingPattern {
  std::regex re;
  const char* what;
};

const BlockingPattern kBlocking[] = {
    {std::regex(R"((?:^|[^\w])sleep_(?:for|until)\s*\()"), "thread sleep"},
    {std::regex(R"((\w+)\s*\.\s*join\s*\(\s*\))"), "thread join"},
    {std::regex(R"((?:\.|->)\s*(?:send|recv)\s*\()"),
     "blocking transport send/recv"},
    {std::regex(R"((?:^|[^\w])(?:send_all|recv_all|connect_to)\s*\()"),
     "blocking socket I/O"},
    {std::regex(R"((?:^|[^\w])(?:connect|accept)\s*\()"),
     "blocking socket call"},
};

std::string held_names(const std::vector<const LockDecl*>& held) {
  std::string out;
  for (const LockDecl* d : held) {
    if (!out.empty()) out += ", ";
    out += "'" + (d->annotated ? d->order_name : d->var) + "'";
  }
  return out;
}

}  // namespace

void rule_concurrency(const std::vector<SourceFile>& files, const Config& cfg,
                      std::vector<Finding>& out) {
  // Scope: files under lock_paths minus lock_exclude (the annotation shim
  // itself wraps a std::mutex and is excluded by default).
  std::vector<const SourceFile*> scoped;
  for (const SourceFile& f : files) {
    if (!path_matches_any(f.rel_path, cfg.lock_paths)) continue;
    if (path_matches_any(f.rel_path, cfg.lock_exclude)) continue;
    scoped.push_back(&f);
  }
  if (scoped.empty()) return;

  // Declarations per file, grouped into TUs by path stem (tcp.cpp <-> tcp.hpp).
  std::map<std::string, std::vector<LockDecl>> decls_by_file;
  std::map<std::string, std::vector<std::string>> files_by_stem;
  for (const SourceFile* f : scoped) {
    decls_by_file[f->rel_path] = collect_decls(*f);
    files_by_stem[tu_stem(f->rel_path)].push_back(f->rel_path);
  }

  // R6a: every lockable must carry a well-formed annotation.
  for (const SourceFile* f : scoped) {
    for (const LockDecl& d : decls_by_file[f->rel_path]) {
      if (d.malformed) {
        out.push_back({d.file, d.line, "lock-order",
                       "malformed `// lock-order:` annotation on '" + d.var +
                           "'; expected `// lock-order: <name> [before "
                           "<other>, ...]`"});
      } else if (!d.annotated) {
        out.push_back(
            {d.file, d.line, "lock-order",
             std::string(d.is_cv ? "condition variable '" : "mutex '") +
                 d.var +
                 "' has no `// lock-order: <name> [before <other>, ...]` "
                 "annotation naming its level in the lock hierarchy (see "
                 "DESIGN.md \"Concurrency discipline\")"});
      }
    }
  }

  // Per-file resolvers: own declarations plus the companion header/source.
  std::map<std::string, Resolver> resolvers;
  std::set<std::pair<std::string, std::string>> ambiguity_reported;
  for (const SourceFile* f : scoped) {
    Resolver& res = resolvers[f->rel_path];
    std::map<std::string, std::vector<const LockDecl*>> candidates;
    for (const std::string& rel : files_by_stem[tu_stem(f->rel_path)])
      for (const LockDecl& d : decls_by_file[rel])
        candidates[d.var].push_back(&d);
    for (const auto& [var, ds] : candidates) {
      if (ds.size() == 1) {
        res.by_var[var] = ds[0];
      } else if (ambiguity_reported.emplace(tu_stem(f->rel_path), var)
                     .second) {
        out.push_back(
            {ds[1]->file, ds[1]->line, "lock-order",
             "lockable name '" + var + "' is declared more than once in "
             "this TU (also " + ds[0]->file + ":" +
                 std::to_string(ds[0]->line) +
                 "); rename one so lock sites resolve unambiguously"});
      }
    }
  }

  // Declared hierarchy graph over annotation names.
  std::map<std::string, std::set<std::string>> edges;
  std::map<std::string, std::pair<std::string, std::size_t>> name_site;
  for (const auto& [rel, decls] : decls_by_file) {
    for (const LockDecl& d : decls) {
      if (!d.annotated || d.is_cv) continue;
      name_site.emplace(d.order_name, std::make_pair(d.file, d.line));
      for (const std::string& succ : d.before)
        edges[d.order_name].insert(succ);
    }
  }
  // Transitive closure (node count is tiny; BFS per node).
  std::map<std::string, std::set<std::string>> reach;
  for (const auto& [n, _] : name_site) {
    std::vector<std::string> queue(edges[n].begin(), edges[n].end());
    std::set<std::string>& r = reach[n];
    while (!queue.empty()) {
      const std::string cur = queue.back();
      queue.pop_back();
      if (!r.insert(cur).second) continue;
      for (const std::string& nxt : edges[cur]) queue.push_back(nxt);
    }
  }

  // R6b: cycles in the declared hierarchy.
  std::set<std::string> cycle_reported;
  for (const auto& [n, site] : name_site) {
    if (!reach[n].count(n) || cycle_reported.count(n)) continue;
    std::string members = "'" + n + "'";
    cycle_reported.insert(n);
    for (const auto& [m, _] : name_site) {
      if (m != n && reach[n].count(m) && reach[m].count(n)) {
        members += ", '" + m + "'";
        cycle_reported.insert(m);
      }
    }
    out.push_back({site.first, site.second, "lock-order",
                   "declared lock-order hierarchy contains a cycle through " +
                       members + "; break it by removing a `before` edge"});
  }

  // Scan every file's lock scopes once; shared by R6c/R8/R9.
  std::map<std::string, ScanResult> scans;
  for (const SourceFile* f : scoped)
    scans.emplace(f->rel_path,
                  scan_lock_scopes(*f, resolvers[f->rel_path]));

  // R6c: unresolved lock sites + observed acquisition order vs declared.
  std::set<std::tuple<std::string, std::string, std::string>> edge_reported;
  for (const SourceFile* f : scoped) {
    const ScanResult& scan = scans.at(f->rel_path);
    for (const auto& [line, name] : scan.unresolved) {
      out.push_back({f->rel_path, line, "lock-order",
                     "cannot resolve lock target '" + name +
                         "' to a declared mutex in this TU; the acquisition "
                         "graph cannot order it"});
    }
    for (const Acquisition& acq : scan.acquisitions) {
      if (!acq.decl->annotated) continue;
      const std::string& to = acq.decl->order_name;
      for (const LockDecl* held : acq.held) {
        if (!held->annotated) continue;
        const std::string& from = held->order_name;
        if (!edge_reported.emplace(f->rel_path, from, to).second) continue;
        if (from == to) {
          out.push_back({f->rel_path, acq.line, "lock-order",
                         "nested acquisition of '" + to +
                             "' while already holding '" + from +
                             "'; same-level locks deadlock unless instances "
                             "are provably distinct and ordered"});
        } else if (reach[from].count(to)) {
          edge_reported.erase({f->rel_path, from, to});  // fine; allow re-check
        } else if (reach[to].count(from)) {
          out.push_back({f->rel_path, acq.line, "lock-order",
                         "acquiring '" + to + "' while holding '" + from +
                             "' contradicts the declared order ('" + to +
                             "' before '" + from + "')"});
        } else {
          out.push_back(
              {f->rel_path, acq.line, "lock-order",
               "acquiring '" + to + "' while holding '" + from +
                   "' but the hierarchy declares no order between them; add "
                   "`before " + to + "` to the `// lock-order: " + from +
                   "` annotation (or waive)"});
        }
      }
    }
  }

  // R7: cv wait without a predicate.
  for (const SourceFile* f : scoped) {
    const Resolver& res = resolvers[f->rel_path];
    const std::regex kWait(R"((\w+)\s*\.\s*(wait|wait_for|wait_until)\s*\()");
    for (std::size_t i = 0; i < f->code.size(); ++i) {
      const std::string& line = f->code[i];
      for (auto it = std::sregex_iterator(line.begin(), line.end(), kWait);
           it != std::sregex_iterator(); ++it) {
        const std::string var = (*it)[1].str();
        const auto found = res.by_var.find(var);
        if (found == res.by_var.end() || !found->second->is_cv) continue;
        const std::string method = (*it)[2].str();
        const std::size_t paren =
            static_cast<std::size_t>(it->position(0)) + it->length(0) - 1;
        const int args = count_call_args(*f, i, paren);
        const int need = method == "wait" ? 2 : 3;
        if (args < need) {
          out.push_back(
              {f->rel_path, i + 1, "cv-wait-predicate",
               "'" + var + "." + method +
                   "' without a predicate overload; spurious wakeups and "
                   "missed rechecks hot-spin or hang (the PR 8 delivery-loop "
                   "bug) — pass the condition as a lambda"});
        }
      }
    }
  }

  // R8: guarded fields touched without the owning lock.
  for (const SourceFile* f : scoped) {
    const Resolver& res = resolvers[f->rel_path];
    const ScanResult& scan = scans.at(f->rel_path);
    // field -> owning decl, from every guards list visible in this TU.
    std::map<std::string, const LockDecl*> owner;
    for (const auto& [var, d] : res.by_var)
      for (const std::string& field : d->guards) owner[field] = d;
    for (const auto& [field, decl] : owner) {
      const std::regex access("(^|[^\\w.>])" + field + "([^\\w]|$)");
      // A plain member declaration of the field itself is not an access.
      const std::regex member_decl(
          "^(?!\\s*(?:return|throw|co_return|delete)\\b)"
          "\\s*(?:mutable\\s+|static\\s+|const\\s+|constexpr\\s+)*[\\w:]+"
          "(?:\\s*<[^;]*>)?[\\s*&]+" + field +
          "\\s*(?:FIFL_\\w+\\s*\\([^)]*\\))?"
          "\\s*(?:=[^;]*|\\{[^;]*\\})?\\s*;?\\s*$");
      // Constructor member-init-list entries run before any thread exists.
      const std::regex init_list("^\\s*[:,]\\s*" + field + "\\s*[({]");
      for (std::size_t i = 0; i < f->code.size(); ++i) {
        const std::string& line = f->code[i];
        if (!std::regex_search(line, access)) continue;
        if (std::regex_search(line, member_decl)) continue;
        if (std::regex_search(line, init_list)) continue;
        const auto& held = scan.held_after[i];
        if (std::find(held.begin(), held.end(), decl) != held.end()) continue;
        out.push_back(
            {f->rel_path, i + 1, "guarded-by",
             "'" + field + "' is guarded by '" +
                 (decl->annotated ? decl->order_name : decl->var) +
                 "' (" + decl->file + ":" + std::to_string(decl->line) +
                 ") but this scope does not hold it"});
      }
    }
  }

  // R9: blocking calls while a tracked lock is engaged.
  for (const SourceFile* f : scoped) {
    const ScanResult& scan = scans.at(f->rel_path);
    for (std::size_t i = 0; i < f->code.size(); ++i) {
      if (scan.held_after[i].empty()) continue;
      const std::string& line = f->code[i];
      for (const BlockingPattern& b : kBlocking) {
        if (!std::regex_search(line, b.re)) continue;
        out.push_back(
            {f->rel_path, i + 1, "blocking-under-lock",
             std::string(b.what) + " while holding " +
                 held_names(scan.held_after[i]) +
                 "; every other thread contending for the lock stalls behind "
                 "this call — move it outside the critical section or waive "
                 "with justification"});
      }
    }
  }
}

}  // namespace fifl::lint
