// Fleet log: every lease state transition, durably recorded — the one
// record a fleet server keeps on disk.
//
// The fleet server appends one compact JSON line per lease transition to
// `<campaign>.fleet-audit.jsonl` (flushed per record, same crash posture
// as shard checkpoints): grants and reassignments, heartbeat extensions,
// expiries, disconnect releases, zombie refusals and result commits.
// Timestamps are *server-relative* milliseconds (transport clock minus the
// server's start instant), so a log replays identically under
// FakeTransport's manual clock and wall time, and two logs from different
// hosts line up at zero.
//
// The log has two readers:
//   * `campaign timeline` converts it into a Chrome-trace view
//     (obs/fleet_timeline.hpp), and the chaos CI job asserts the killed
//     worker's lease shows exactly one `reassigned` record;
//   * `campaign serve --resume` replays it (replay_audit_log) to recover
//     a killed server: which campaign it served, which shards committed
//     and where their result files are, and which epoch it was in.
// No deterministic artifact (cells CSV, campaign JSON, shard files)
// depends on it.
//
// The log survives server restarts: a restarted `campaign serve --resume`
// appends to the same file, opening with a `server_start` record that
// marks the epoch boundary (every record carries the writing server's
// epoch). Timestamps restart at zero with each incarnation's clock. A
// server killed mid-append loses at most the record being written; the
// replayer skips the torn fragment.
//
// Record schema (one JSON object per line):
//   {"t_ms":1234,"event":"grant","shard":2,"generation":1,"epoch":0,
//    "worker":"w1","detail":"..."}            // detail only when non-empty
// plus, on `server_start`, the campaign identity
//   "campaign":"name","shards":S,"jobs":J,"grid_fp":F
// and, on `commit`, the shard result file the server wrote *before*
// appending the record (so a replayed commit always points at a durable
// file)
//   "file":"path"
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/json.hpp"
#include "util/jsonl.hpp"

namespace secbus::campaign {

// Lease transitions, in the lease state machine's vocabulary.
enum class AuditEvent : std::uint8_t {
  kGrant,        // pending shard leased to a worker (first time)
  kReassigned,   // pending shard re-leased after a previous lease was lost
  kExtend,       // heartbeat accepted, deadline pushed out
  kExpire,       // heartbeats stopped, lease returned to pending
  kRelease,      // holder disconnected, lease returned to pending
  kRefuse,       // stale generation or epoch presented (zombie fenced off)
  kCommit,       // shard result accepted, shard done
  kServerStart,  // a server incarnation opened the log (epoch boundary);
                 // leases open at this point died with the previous server
};

[[nodiscard]] const char* to_string(AuditEvent event) noexcept;
bool parse_audit_event(std::string_view text, AuditEvent& out) noexcept;

struct AuditRecord {
  std::uint64_t t_ms = 0;  // server-relative milliseconds (reset per epoch)
  AuditEvent event = AuditEvent::kGrant;
  std::size_t shard = 0;
  std::uint64_t generation = 0;
  // Server incarnation that wrote this record. The log appends across
  // restarts, so `epoch` is what lets the timeline attribute records to
  // the incarnation whose clock stamped them. Logs from before the epoch
  // field read back as epoch 0.
  std::uint64_t epoch = 0;
  std::string worker;
  std::string detail;  // human-readable context; empty for most records
  // server_start only: the identity of the campaign this incarnation
  // serves (empty campaign = not recorded, as in logs from before it was).
  std::string campaign;
  std::size_t shards = 0;
  std::size_t jobs = 0;
  std::uint64_t grid_fp = 0;
  // commit only: path of the shard result file, durably written before
  // the record was appended.
  std::string file;
};

[[nodiscard]] util::Json audit_record_to_json(const AuditRecord& record);
bool audit_record_from_json(const util::Json& j, AuditRecord& out,
                            std::string* error = nullptr);

// Append-only flushed JSONL writer for audit records. Thin veneer over
// util::JsonlWriter so the fleet server's call sites stay one-liners.
class AuditLog {
 public:
  bool open(const std::string& path) { return writer_.open(path); }

  // False when the record did not reach the file (including while the log
  // is closed).
  bool append(const AuditRecord& record) {
    return writer_.append(audit_record_to_json(record));
  }

 private:
  util::JsonlWriter writer_;
};

// Conventional audit-log file name: "<campaign>.fleet-audit.jsonl".
[[nodiscard]] std::string audit_file_name(const std::string& campaign);

// Replays an audit log. Torn or malformed lines are skipped (the log may
// end mid-record if the server was killed); returns false only when the
// file cannot be read at all.
bool read_audit_log(const std::string& path, std::vector<AuditRecord>& out,
                    std::string* error = nullptr);

// Everything a restarting server learns from its log.
struct AuditReplay {
  bool any_start = false;        // a server_start with identity replayed
  std::uint64_t last_epoch = 0;  // highest epoch seen
  // Identity of the logged campaign, from the first server_start that
  // carries one; later ones must agree or the replay fails.
  std::string campaign;
  std::size_t shards = 0;
  std::size_t jobs = 0;
  std::uint64_t grid_fp = 0;
  std::map<std::size_t, AuditRecord> committed;  // shard -> commit record

  [[nodiscard]] bool complete() const noexcept {
    return any_start && committed.size() == shards;
  }
};

// Replays the recovery state from an audit log. Torn lines are skipped,
// as are server_start records without identity and commits without a
// file. Returns false when the file cannot be read at all, or when the
// records contradict each other: server_starts with different identities,
// an epoch going backwards, a commit for an out-of-range shard.
bool replay_audit_log(const std::string& path, AuditReplay& out,
                      std::string* error = nullptr);

}  // namespace secbus::campaign
