#include "rl0/serve/protocol.h"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <utility>

namespace rl0 {
namespace serve {

LineDecoder::LineDecoder(size_t max_line_bytes)
    : max_line_bytes_(max_line_bytes < 16 ? 16 : max_line_bytes) {}

void LineDecoder::Append(const char* data, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    const char c = data[i];
    if (discarding_) {
      // Inside an oversized line: drop bytes through its newline. The
      // notice was queued when the limit was crossed, so memory stays
      // bounded even if the newline never comes.
      if (c == '\n') discarding_ = false;
      continue;
    }
    if (c == '\n') {
      if (!partial_.empty() && partial_.back() == '\r') {
        partial_.pop_back();  // tolerate CRLF
      }
      events_.emplace_back(false, std::move(partial_));
      partial_.clear();
      continue;
    }
    partial_.push_back(c);
    if (partial_.size() > max_line_bytes_) {
      partial_.clear();
      events_.emplace_back(true, std::string());
      discarding_ = true;
    }
  }
}

LineDecoder::Event LineDecoder::Next(std::string* line) {
  if (events_.empty()) return Event::kNone;
  const bool oversized = events_.front().first;
  if (!oversized) *line = std::move(events_.front().second);
  events_.pop_front();
  return oversized ? Event::kOversized : Event::kLine;
}

bool ValidTenantName(const std::string& name) {
  if (name.empty() || name.size() > 64) return false;
  if (name[0] == '.') return false;
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '.' ||
                    c == '-';
    if (!ok) return false;
  }
  return true;
}

std::string FormatSampleLine(const Point& point, uint64_t stream_index) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "  # stream position %llu",
                static_cast<unsigned long long>(stream_index));
  return point.ToString() + buf;
}

// Strict numeric parsing, mirroring stream/csv.cc: errno reset, full
// token consumed, range-checked, and (for doubles) finite. Any deviation
// is a parse error, never a silently-clamped value.

bool ParseU64Token(const std::string& tok, uint64_t* out) {
  // A leading digit also rules out the whitespace strtoull would skip.
  if (tok.empty() || tok[0] < '0' || tok[0] > '9') return false;
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(tok.c_str(), &end, 10);
  if (end != tok.c_str() + tok.size()) return false;
  if (errno == ERANGE) return false;
  *out = static_cast<uint64_t>(v);
  return true;
}

bool ParseDoubleToken(const std::string& tok, double* out) {
  if (tok.empty()) return false;
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(tok.c_str(), &end);
  if (end != tok.c_str() + tok.size()) return false;
  if (errno == ERANGE || !std::isfinite(v)) return false;
  *out = v;
  return true;
}

namespace {

bool ParseI64Token(const std::string& tok, int64_t* out) {
  if (tok.empty() || tok[0] == '+') return false;
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(tok.c_str(), &end, 10);
  if (end != tok.c_str() + tok.size()) return false;
  if (errno == ERANGE) return false;
  *out = static_cast<int64_t>(v);
  return true;
}

std::vector<std::string> SplitTokens(const std::string& line) {
  std::vector<std::string> tokens;
  size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && (line[i] == ' ' || line[i] == '\t')) ++i;
    size_t start = i;
    while (i < line.size() && line[i] != ' ' && line[i] != '\t') ++i;
    if (i > start) tokens.emplace_back(line, start, i - start);
  }
  return tokens;
}

Status Err(const std::string& msg) { return Status::InvalidArgument(msg); }

/// Parses "x,y,z" into a Point. `expect_dim` of 0 accepts any dimension.
bool ParsePointToken(const std::string& tok, Point* out) {
  std::vector<double> coords;
  size_t start = 0;
  for (;;) {
    const size_t comma = tok.find(',', start);
    const std::string piece =
        comma == std::string::npos ? tok.substr(start)
                                   : tok.substr(start, comma - start);
    double v;
    if (!ParseDoubleToken(piece, &v)) return false;
    coords.push_back(v);
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  *out = Point(std::move(coords));
  return true;
}

/// Splits "key=value"; returns false when there is no '=' or empty key.
bool SplitKeyValue(const std::string& tok, std::string* key,
                   std::string* value) {
  const size_t eq = tok.find('=');
  if (eq == std::string::npos || eq == 0) return false;
  key->assign(tok, 0, eq);
  value->assign(tok, eq + 1, tok.size() - eq - 1);
  return true;
}

Result<Command> ParseCreate(const std::vector<std::string>& tokens) {
  Command cmd;
  cmd.type = CommandType::kCreate;
  if (tokens.size() < 2) return Err("CREATE: missing tenant name");
  cmd.tenant = tokens[1];
  if (!ValidTenantName(cmd.tenant)) {
    return Err("CREATE: bad tenant name (want [A-Za-z0-9_.-]{1,64})");
  }
  CreateParams& p = cmd.create;
  bool have_dim = false, have_alpha = false, have_window = false;
  for (size_t i = 2; i < tokens.size(); ++i) {
    std::string key, value;
    if (!SplitKeyValue(tokens[i], &key, &value)) {
      return Err("CREATE: expected key=value, got '" + tokens[i] + "'");
    }
    uint64_t u = 0;
    double d = 0.0;
    int64_t s = 0;
    if (key == "dim") {
      if (!ParseU64Token(value, &u) || u == 0 || u > 4096) {
        return Err("CREATE: bad dim");
      }
      p.dim = static_cast<size_t>(u);
      have_dim = true;
    } else if (key == "alpha") {
      if (!ParseDoubleToken(value, &d) || d <= 0.0) {
        return Err("CREATE: bad alpha");
      }
      p.alpha = d;
      have_alpha = true;
    } else if (key == "window") {
      if (!ParseI64Token(value, &s) || s <= 0) {
        return Err("CREATE: bad window");
      }
      p.window = s;
      have_window = true;
    } else if (key == "mode") {
      if (value == "seq") {
        p.mode = TenantMode::kSequence;
      } else if (value == "time") {
        p.mode = TenantMode::kTime;
      } else if (value == "late") {
        p.mode = TenantMode::kLate;
      } else {
        return Err("CREATE: bad mode (want seq|time|late)");
      }
    } else if (key == "lateness") {
      if (!ParseI64Token(value, &s) || s < 0) {
        return Err("CREATE: bad lateness");
      }
      p.lateness = s;
    } else if (key == "shards") {
      if (!ParseU64Token(value, &u) || u == 0 || u > kMaxShards) {
        return Err("CREATE: bad shards");
      }
      p.shards = static_cast<size_t>(u);
    } else if (key == "seed") {
      if (!ParseU64Token(value, &u)) return Err("CREATE: bad seed");
      p.seed = u;
    } else if (key == "metric") {
      if (value == "l2") {
        p.metric = Metric::kL2;
      } else if (value == "l1") {
        p.metric = Metric::kL1;
      } else if (value == "linf") {
        p.metric = Metric::kLinf;
      } else {
        return Err("CREATE: bad metric (want l2|l1|linf)");
      }
    } else if (key == "m") {
      if (!ParseU64Token(value, &u) || u == 0) return Err("CREATE: bad m");
      p.expected_m = u;
    } else if (key == "k") {
      if (!ParseU64Token(value, &u) || u == 0 || u > 4096) {
        return Err("CREATE: bad k");
      }
      p.k = static_cast<size_t>(u);
    } else if (key == "reservoir") {
      if (!ParseU64Token(value, &u) || u > 1) {
        return Err("CREATE: bad reservoir (want 0|1)");
      }
      p.reservoir = u != 0;
    } else if (key == "filter") {
      if (!ParseU64Token(value, &u) || u > 1) {
        return Err("CREATE: bad filter (want 0|1)");
      }
      p.filter = u != 0;
    } else if (key == "ckpt") {
      if (!ParseU64Token(value, &u) || u > 1) {
        return Err("CREATE: bad ckpt (want 0|1)");
      }
      p.checkpoint = u != 0;
    } else if (key == "every") {
      if (!ParseU64Token(value, &u)) return Err("CREATE: bad every");
      p.checkpoint_every = u;
    } else if (key == "recover") {
      if (!ParseU64Token(value, &u) || u > 1) {
        return Err("CREATE: bad recover (want 0|1)");
      }
      p.recover = u != 0;
    } else {
      return Err("CREATE: unknown option '" + key + "'");
    }
  }
  if (!have_dim) return Err("CREATE: missing dim=");
  if (!have_alpha) return Err("CREATE: missing alpha=");
  if (!have_window) return Err("CREATE: missing window=");
  if (p.mode == TenantMode::kLate && p.lateness <= 0) {
    return Err("CREATE: mode=late requires lateness>0");
  }
  if (p.mode != TenantMode::kLate && p.lateness != 0) {
    return Err("CREATE: lateness= requires mode=late");
  }
  if (p.recover) p.checkpoint = true;
  return cmd;
}

Result<Command> ParseFeed(const std::vector<std::string>& tokens,
                          bool stamped) {
  Command cmd;
  cmd.type = stamped ? CommandType::kFeedStamped : CommandType::kFeed;
  const char* name = stamped ? "FEEDSTAMPED" : "FEED";
  if (tokens.size() < 2) {
    return Err(std::string(name) + ": missing tenant name");
  }
  cmd.tenant = tokens[1];
  if (tokens.size() < 3) {
    return Err(std::string(name) + ": no points");
  }
  if (tokens.size() - 2 > kMaxPointsPerFeed) {
    return Err(std::string(name) + ": too many points in one command");
  }
  cmd.points.reserve(tokens.size() - 2);
  if (stamped) cmd.stamps.reserve(tokens.size() - 2);
  size_t dim = 0;
  for (size_t i = 2; i < tokens.size(); ++i) {
    std::string coords_tok = tokens[i];
    if (stamped) {
      const size_t at = coords_tok.find('@');
      if (at == std::string::npos) {
        return Err("FEEDSTAMPED: expected stamp@coords, got '" +
                   tokens[i] + "'");
      }
      int64_t stamp;
      if (!ParseI64Token(coords_tok.substr(0, at), &stamp)) {
        return Err("FEEDSTAMPED: bad stamp in '" + tokens[i] + "'");
      }
      // No ordering check here: whether disorder is legal depends on
      // the tenant's mode (late tolerates it, time does not), which the
      // stateless parser cannot know. The registry enforces it.
      cmd.stamps.push_back(stamp);
      coords_tok.erase(0, at + 1);
    }
    Point point;
    if (!ParsePointToken(coords_tok, &point)) {
      return Err(std::string(name) + ": bad point '" + tokens[i] + "'");
    }
    if (i == 2) {
      dim = point.dim();
    } else if (point.dim() != dim) {
      return Err(std::string(name) + ": inconsistent dimensions");
    }
    cmd.points.push_back(std::move(point));
  }
  return cmd;
}

Result<Command> ParseSample(const std::vector<std::string>& tokens) {
  Command cmd;
  cmd.type = CommandType::kSample;
  if (tokens.size() < 2) return Err("SAMPLE: missing tenant name");
  cmd.tenant = tokens[1];
  for (size_t i = 2; i < tokens.size(); ++i) {
    std::string key, value;
    if (!SplitKeyValue(tokens[i], &key, &value)) {
      return Err("SAMPLE: expected key=value, got '" + tokens[i] + "'");
    }
    uint64_t u = 0;
    if (key == "q") {
      if (!ParseU64Token(value, &u) || u == 0 || u > 4096) {
        return Err("SAMPLE: bad q");
      }
      cmd.queries = static_cast<int>(u);
    } else if (key == "seed") {
      if (!ParseU64Token(value, &u)) return Err("SAMPLE: bad seed");
      cmd.seed = u;
      cmd.seed_set = true;
    } else {
      return Err("SAMPLE: unknown option '" + key + "'");
    }
  }
  return cmd;
}

Result<Command> ParseSubscribe(const std::vector<std::string>& tokens) {
  Command cmd;
  cmd.type = CommandType::kSubscribe;
  if (tokens.size() < 3) {
    return Err("SUBSCRIBE: want SUBSCRIBE <tenant> digest|f0|churn ...");
  }
  cmd.tenant = tokens[1];
  const std::string& kind = tokens[2];
  if (kind == "digest") {
    cmd.query = QueryKind::kDigest;
  } else if (kind == "f0") {
    cmd.query = QueryKind::kF0;
  } else if (kind == "churn") {
    cmd.query = QueryKind::kChurn;
  } else {
    return Err("SUBSCRIBE: bad kind (want digest|f0|churn)");
  }
  bool have_every = false, have_threshold = false;
  for (size_t i = 3; i < tokens.size(); ++i) {
    std::string key, value;
    if (!SplitKeyValue(tokens[i], &key, &value)) {
      return Err("SUBSCRIBE: expected key=value, got '" + tokens[i] + "'");
    }
    uint64_t u = 0;
    double d = 0.0;
    if (key == "every") {
      // The registry stores fire cadences as int64 stream positions;
      // every > INT64_MAX would wrap negative and break trigger math.
      if (!ParseU64Token(value, &u) || u == 0 ||
          u > static_cast<uint64_t>(
                  std::numeric_limits<int64_t>::max())) {
        return Err("SUBSCRIBE: bad every");
      }
      cmd.every = u;
      have_every = true;
    } else if (key == "q" && cmd.query == QueryKind::kDigest) {
      if (!ParseU64Token(value, &u) || u == 0 || u > 4096) {
        return Err("SUBSCRIBE: bad q");
      }
      cmd.queries = static_cast<int>(u);
    } else if (key == "seed" && cmd.query == QueryKind::kDigest) {
      if (!ParseU64Token(value, &u)) return Err("SUBSCRIBE: bad seed");
      cmd.seed = u;
      cmd.seed_set = true;
    } else if (key == "threshold" && cmd.query == QueryKind::kChurn) {
      if (!ParseDoubleToken(value, &d) || d < 0.0) {
        return Err("SUBSCRIBE: bad threshold");
      }
      cmd.threshold = d;
      have_threshold = true;
    } else {
      return Err("SUBSCRIBE: unknown option '" + key + "'");
    }
  }
  if (!have_every) return Err("SUBSCRIBE: missing every=");
  if (cmd.query == QueryKind::kChurn && !have_threshold) {
    return Err("SUBSCRIBE: churn requires threshold=");
  }
  return cmd;
}

}  // namespace

Result<Command> ParseCommand(const std::string& line) {
  const std::vector<std::string> tokens = SplitTokens(line);
  if (tokens.empty()) return Err("empty command");
  const std::string& verb = tokens[0];
  if (verb == "PING") {
    Command cmd;
    cmd.type = CommandType::kPing;
    if (tokens.size() != 1) return Err("PING takes no arguments");
    return cmd;
  }
  if (verb == "QUIT") {
    Command cmd;
    cmd.type = CommandType::kQuit;
    if (tokens.size() != 1) return Err("QUIT takes no arguments");
    return cmd;
  }
  if (verb == "CREATE") return ParseCreate(tokens);
  if (verb == "FEED") return ParseFeed(tokens, /*stamped=*/false);
  if (verb == "FEEDSTAMPED") return ParseFeed(tokens, /*stamped=*/true);
  if (verb == "SAMPLE") return ParseSample(tokens);
  if (verb == "SUBSCRIBE") return ParseSubscribe(tokens);
  if (verb == "UNSUBSCRIBE") {
    Command cmd;
    cmd.type = CommandType::kUnsubscribe;
    if (tokens.size() != 3) {
      return Err("UNSUBSCRIBE: want UNSUBSCRIBE <tenant> <sub-id>");
    }
    cmd.tenant = tokens[1];
    if (!ParseU64Token(tokens[2], &cmd.sub_id)) {
      return Err("UNSUBSCRIBE: bad sub-id");
    }
    return cmd;
  }
  if (verb == "F0" || verb == "FLUSH" || verb == "CLOSE") {
    Command cmd;
    cmd.type = verb == "F0"      ? CommandType::kF0
               : verb == "FLUSH" ? CommandType::kFlush
                                 : CommandType::kClose;
    if (tokens.size() != 2) {
      return Err(verb + ": want " + verb + " <tenant>");
    }
    cmd.tenant = tokens[1];
    return cmd;
  }
  if (verb == "STATS") {
    Command cmd;
    cmd.type = CommandType::kStats;
    if (tokens.size() > 2) return Err("STATS: want STATS [<tenant>]");
    if (tokens.size() == 2) cmd.tenant = tokens[1];
    return cmd;
  }
  return Err("unknown command '" + verb + "'");
}

}  // namespace serve
}  // namespace rl0
