// An interactive shell over the Session facade — the quickest way to poke
// at the system:
//
//   $ ./build/tools/auxview_shell
//   auxview> CREATE TABLE Emp (EName STRING PRIMARY KEY, DName STRING,
//            Salary INT, INDEX (DName));
//   auxview> CREATE VIEW SumOfSals (DName, SalSum) AS
//            SELECT DName, SUM(Salary) FROM Emp GROUPBY DName;
//   auxview> INSERT INTO Emp VALUES ('alice', 'eng', 100);
//   auxview> .workload modify Emp Salary 5
//   auxview> .prepare
//   auxview> .plan
//   auxview> UPDATE Emp SET Salary = 120 WHERE EName = 'alice';
//   auxview> SELECT * FROM SumOfSals;
//
// Dot-commands: .prepare [strategy], .workload <modify|insert|delete>
// <relation> [attr] [weight], .plan, .check, .io, .consistency, .wal,
// .checkpoint, .recover, .session, .commit, .abort, .retry, .help, .quit.
// Statements may span lines; they run at ';'.
//
// After .prepare, `.session open` starts a concurrent session: statements
// stage privately against a pinned snapshot until .commit, which runs
// first-committer-wins validation (docs/SHELL.md has a two-session
// conflict demo).
//
// Interactive sessions get an in-process line-history buffer (Up/Down
// recall, backspace editing) with no readline dependency; piped input
// falls back to plain std::getline so scripts behave byte-identically.

#include <cstdio>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <termios.h>
#include <unistd.h>

#include "auxview.h"
#include "optimizer/explain.h"

namespace {

using namespace auxview;

/// Minimal interactive line reader: raw-mode keystroke loop with an
/// in-process history ring (Up/Down recall the previous/next line,
/// backspace edits, Ctrl-U clears, Ctrl-C abandons the line, Ctrl-D on an
/// empty line is EOF). Only the current line is editable and only at its
/// end — deliberately tiny, not a readline. When stdin is not a terminal
/// (scripts, CI, `shell < file.sql`), every call degrades to std::getline
/// so piped sessions are byte-identical with or without a TTY.
class LineReader {
 public:
  /// Reads one line (without the trailing newline) after printing `prompt`.
  /// Returns false on EOF.
  bool ReadLine(const std::string& prompt, std::string* out) {
    if (!isatty(STDIN_FILENO)) {
      std::printf("%s", prompt.c_str());
      std::fflush(stdout);
      return static_cast<bool>(std::getline(std::cin, *out));
    }
    RawMode raw;
    if (!raw.ok()) {  // exotic terminal: keep working, lose history
      std::printf("%s", prompt.c_str());
      std::fflush(stdout);
      return static_cast<bool>(std::getline(std::cin, *out));
    }
    std::string line;
    // One-past-the-end of history_ = "the fresh line being typed"; Up moves
    // toward 0. The line under edit is stashed so Down returns to it.
    size_t cursor = history_.size();
    std::string stash;
    Redraw(prompt, line);
    while (true) {
      unsigned char c;
      const ssize_t n = read(STDIN_FILENO, &c, 1);
      if (n <= 0) {  // EOF/error mid-line: hand back what we have
        std::printf("\n");
        *out = line;
        return !line.empty();
      }
      if (c == '\r' || c == '\n') {
        std::printf("\n");
        if (!line.empty() &&
            (history_.empty() || history_.back() != line)) {
          history_.push_back(line);
          if (history_.size() > kMaxHistory) {
            history_.erase(history_.begin());
          }
        }
        *out = line;
        return true;
      }
      if (c == 0x04) {  // Ctrl-D: EOF on an empty line, else ignored
        if (line.empty()) {
          std::printf("\n");
          return false;
        }
        continue;
      }
      if (c == 0x03) {  // Ctrl-C: abandon the line
        std::printf("^C\n");
        line.clear();
        cursor = history_.size();
        Redraw(prompt, line);
        continue;
      }
      if (c == 0x15) {  // Ctrl-U: clear the line
        line.clear();
        Redraw(prompt, line);
        continue;
      }
      if (c == 0x7f || c == 0x08) {  // backspace
        if (!line.empty()) line.pop_back();
        Redraw(prompt, line);
        continue;
      }
      if (c == 0x1b) {  // ESC [ A/B — arrow keys; other sequences ignored
        unsigned char seq[2];
        if (read(STDIN_FILENO, &seq[0], 1) != 1 ||
            read(STDIN_FILENO, &seq[1], 1) != 1 || seq[0] != '[') {
          continue;
        }
        if (seq[1] == 'A' && cursor > 0) {  // Up: older
          if (cursor == history_.size()) stash = line;
          line = history_[--cursor];
          Redraw(prompt, line);
        } else if (seq[1] == 'B' && cursor < history_.size()) {  // Down
          ++cursor;
          line = cursor == history_.size() ? stash : history_[cursor];
          Redraw(prompt, line);
        }
        continue;
      }
      if (c >= 0x20) {  // printable (UTF-8 continuation bytes included)
        line.push_back(static_cast<char>(c));
        std::fputc(c, stdout);
        std::fflush(stdout);
      }
    }
  }

 private:
  static constexpr size_t kMaxHistory = 500;

  /// Enters raw input (no echo, no line buffering, no signal keys) for one
  /// line's scope and restores the saved settings on destruction. Ctrl-C is
  /// read as a byte and means "abandon the line", like readline's default.
  class RawMode {
   public:
    RawMode() {
      ok_ = tcgetattr(STDIN_FILENO, &saved_) == 0;
      if (!ok_) return;
      termios raw = saved_;
      raw.c_lflag &= ~static_cast<tcflag_t>(ECHO | ICANON | ISIG);
      raw.c_iflag &= ~static_cast<tcflag_t>(IXON | ICRNL);
      raw.c_cc[VMIN] = 1;
      raw.c_cc[VTIME] = 0;
      ok_ = tcsetattr(STDIN_FILENO, TCSAFLUSH, &raw) == 0;
    }
    ~RawMode() {
      if (ok_) tcsetattr(STDIN_FILENO, TCSAFLUSH, &saved_);
    }
    bool ok() const { return ok_; }

   private:
    termios saved_;
    bool ok_ = false;
  };

  static void Redraw(const std::string& prompt, const std::string& line) {
    // \r + clear-to-end repaint; fine for lines shorter than the terminal
    // width, which is all this shell needs.
    std::printf("\r\x1b[K%s%s", prompt.c_str(), line.c_str());
    std::fflush(stdout);
  }

  std::vector<std::string> history_;
};

void PrintHelp() {
  std::printf(
      "SQL: CREATE TABLE/VIEW/ASSERTION, SELECT, INSERT, UPDATE, DELETE\n"
      "dot-commands:\n"
      "  .workload <modify|insert|delete> <relation> [attr] [weight]\n"
      "      declare an expected transaction type (repeatable)\n"
      "  .prepare [exhaustive|shielding|single-tree|marking|greedy]\n"
      "      optimize view selection and materialize\n"
      "  .plan          show the chosen views and per-transaction tracks\n"
      "  .check         check all assertions\n"
      "  .consistency   verify maintained views against recomputation\n"
      "  .io            show the page-I/O counter\n"
      "  .reset-io      reset the page-I/O counter\n"
      "  .metrics       dump the live metrics snapshot (\\metrics works too)\n"
      "  .fail          list failpoints (armed state, hits, triggers)\n"
      "  .fail <name> <N|pP>   arm: abort at the Nth hit / with probability P\n"
      "  .fail off [name]      disarm one failpoint, or all\n"
      "  .wal <dir> [commit|checkpoint|never] [every-N]\n"
      "      attach a write-ahead log (before .prepare); fsync policy and\n"
      "      auto-checkpoint cadence are optional\n"
      "  .checkpoint    write a checkpoint and truncate the log prefix\n"
      "  .recover       replay the attached log's durable state (run the\n"
      "      same DDL and .workload lines first, instead of reloading data)\n"
      "  .session open [name]   open a concurrent session (after .prepare)\n"
      "      and switch to it; statements now stage privately until .commit\n"
      "  .session switch <name|main>   route statements to another session\n"
      "  .session close [name]  close a session (dropping staged changes)\n"
      "  .session       list open sessions (snapshot epoch, staged state)\n"
      "  .commit        optimistic commit of the current session's staging\n"
      "  .abort         drop the current session's staged changes\n"
      "  .retry         drop staged changes, repin, count a retry\n"
      "  .help .quit\n"
      "(docs/SHELL.md documents every command in detail)\n");
}

std::vector<std::string> Split(const std::string& line) {
  std::istringstream in(line);
  std::vector<std::string> out;
  std::string word;
  while (in >> word) out.push_back(word);
  return out;
}

class Shell {
 public:
  int Run() {
    std::printf("auxview shell — SIGMOD'96 \"Trading Space for Time\"; "
                ".help for help\n");
    std::string buffer;
    std::string line;
    while (true) {
      const std::string prompt =
          active_.empty() ? "auxview> " : active_ + "> ";
      if (!reader_.ReadLine(buffer.empty() ? prompt : "    ...> ", &line)) {
        break;
      }
      if (buffer.empty() && !line.empty() &&
          (line[0] == '.' || line[0] == '\\')) {
        if (!DotCommand(line)) break;
        continue;
      }
      buffer += line + "\n";
      if (line.find(';') == std::string::npos) continue;
      RunSql(buffer);
      buffer.clear();
    }
    return 0;
  }

 private:
  TxnSession* ActiveTxn() {
    auto it = txn_sessions_.find(active_);
    return it == txn_sessions_.end() ? nullptr : it->second.get();
  }

  void RunSql(const std::string& sql) {
    TxnSession* txn = ActiveTxn();
    auto result = txn != nullptr ? txn->Execute(sql) : session_.Execute(sql);
    if (!result.ok()) {
      std::printf("error: %s\n", result.status().ToString().c_str());
      return;
    }
    if (result->rejected()) {
      std::printf("REJECTED: assertion %s would be violated (rolled back)\n",
                  result->violated_assertion.c_str());
      return;
    }
    switch (result->kind) {
      case ExecResult::Kind::kDdl:
        std::printf("ok\n");
        break;
      case ExecResult::Kind::kDml:
        if (txn != nullptr) {
          std::printf("staged, %lld row(s) (uncommitted; .commit to "
                      "publish)\n",
                      static_cast<long long>(result->affected));
        } else {
          std::printf("ok, %lld row(s)\n",
                      static_cast<long long>(result->affected));
        }
        break;
      case ExecResult::Kind::kRows: {
        std::printf("[%s]\n", result->rows->schema().ToString().c_str());
        for (const auto& [row, count] : result->rows->SortedRows()) {
          for (int64_t i = 0; i < count; ++i) {
            std::printf("%s\n", RowToString(row).c_str());
          }
        }
        std::printf("(%lld row(s))\n",
                    static_cast<long long>(result->rows->total_count()));
        break;
      }
    }
  }

  bool DotCommand(const std::string& line) {
    std::vector<std::string> words = Split(line);
    // psql-style backslash spelling maps onto the same commands
    // (\metrics == .metrics).
    if (!words[0].empty() && words[0][0] == '\\') words[0][0] = '.';
    const std::string& cmd = words[0];
    if (cmd == ".quit" || cmd == ".exit") return false;
    if (cmd == ".help") {
      PrintHelp();
    } else if (cmd == ".workload") {
      if (words.size() < 3) {
        std::printf("usage: .workload <modify|insert|delete> <relation> "
                    "[attr] [weight]\n");
        return true;
      }
      TransactionType txn;
      UpdateSpec spec;
      spec.relation = words[2];
      size_t next = 3;
      if (words[1] == "modify") {
        spec.kind = UpdateKind::kModify;
        if (words.size() > next) spec.modified_attrs = {words[next++]};
      } else if (words[1] == "insert") {
        spec.kind = UpdateKind::kInsert;
      } else if (words[1] == "delete") {
        spec.kind = UpdateKind::kDelete;
      } else {
        std::printf("unknown update kind: %s\n", words[1].c_str());
        return true;
      }
      txn.weight = words.size() > next ? std::atof(words[next].c_str()) : 1;
      txn.name = ">" + spec.relation + "/" + words[1];
      txn.updates.push_back(spec);
      workload_.push_back(txn);
      session_.DeclareWorkload(workload_);
      std::printf("declared %s\n", txn.ToString().c_str());
    } else if (cmd == ".prepare") {
      SessionOptions options;
      if (words.size() > 1) {
        const std::string& s = words[1];
        if (s == "shielding") options.strategy = Strategy::kShielding;
        else if (s == "single-tree") options.strategy = Strategy::kSingleTree;
        else if (s == "marking") {
          options.strategy = Strategy::kHeuristicMarking;
        } else if (s == "greedy") {
          options.strategy = Strategy::kGreedy;
        }
      }
      // Sessions are single-prepare; strategy changes need a fresh shell.
      if (session_.prepared()) {
        std::printf("already prepared\n");
        return true;
      }
      Status st = session_.Prepare();
      if (!st.ok()) {
        std::printf("prepare failed: %s\n", st.ToString().c_str());
        return true;
      }
      std::printf("%s", ExplainPlan(session_.memo(), session_.plan()).c_str());
    } else if (cmd == ".plan") {
      if (!session_.prepared()) {
        std::printf("not prepared yet\n");
        return true;
      }
      std::printf("%s", ExplainPlan(session_.memo(), session_.plan()).c_str());
    } else if (cmd == ".check") {
      auto checks = session_.CheckAssertions();
      if (!checks.ok()) {
        std::printf("error: %s\n", checks.status().ToString().c_str());
        return true;
      }
      for (const AssertionCheck& check : *checks) {
        std::printf("%s\n", check.ToString().c_str());
      }
      if (checks->empty()) std::printf("(no assertions declared)\n");
    } else if (cmd == ".consistency") {
      Status st = session_.CheckConsistency();
      std::printf("%s\n", st.ok() ? "consistent" : st.ToString().c_str());
    } else if (cmd == ".io") {
      std::printf("%s\n", session_.counter().ToString().c_str());
    } else if (cmd == ".metrics") {
      const obs::MetricsSnapshot snapshot =
          obs::MetricsRegistry::Global().Snapshot();
      std::printf("%s", snapshot.ToTable().c_str());
    } else if (cmd == ".fail") {
      FailpointRegistry& reg = FailpointRegistry::Global();
      if (words.size() == 1) {
        for (const std::string& name : reg.Names()) {
          std::printf("%-30s %-8s hits=%lld triggers=%lld\n", name.c_str(),
                      reg.armed(name) ? "ARMED" : "off",
                      static_cast<long long>(reg.hits(name)),
                      static_cast<long long>(reg.triggers(name)));
        }
      } else if (words[1] == "off") {
        if (words.size() > 2) {
          reg.Disarm(words[2]);
        } else {
          reg.DisarmAll();
        }
        std::printf("ok\n");
      } else if (words.size() == 3) {
        // Reuse the AUXVIEW_FAILPOINTS spec grammar: name=N or name=pP.
        Status st = reg.LoadSpec(words[1] + "=" + words[2]);
        std::printf("%s\n", st.ok() ? "armed" : st.ToString().c_str());
      } else {
        std::printf("usage: .fail | .fail <name> <N|pP> | .fail off [name]\n");
      }
    } else if (cmd == ".wal") {
      if (words.size() < 2) {
        std::printf("usage: .wal <dir> [commit|checkpoint|never] [every-N]\n");
        return true;
      }
      DatabaseOptions options;
      options.wal_dir = words[1];
      size_t next = 2;
      if (words.size() > next) {
        const std::string& policy = words[next];
        if (policy == "commit") {
          options.wal_fsync = WalFsync::kCommit;
          ++next;
        } else if (policy == "checkpoint") {
          options.wal_fsync = WalFsync::kCheckpoint;
          ++next;
        } else if (policy == "never") {
          options.wal_fsync = WalFsync::kNever;
          ++next;
        }
      }
      if (words.size() > next) {
        options.wal_checkpoint_every = std::atoll(words[next].c_str());
      }
      Status st = session_.OpenWal(options);
      if (!st.ok()) {
        std::printf("error: %s\n", st.ToString().c_str());
        return true;
      }
      std::printf("wal attached at %s\n", options.wal_dir.c_str());
      if (session_.db().wal()->recovery_pending()) {
        std::printf("durable state found — run your DDL/.workload, then "
                    ".recover\n");
      }
    } else if (cmd == ".checkpoint") {
      Status st = session_.Checkpoint();
      std::printf("%s\n", st.ok() ? "checkpointed" : st.ToString().c_str());
    } else if (cmd == ".recover") {
      Status st = session_.Recover();
      if (!st.ok()) {
        std::printf("error: %s\n", st.ToString().c_str());
        return true;
      }
      const RecoveryInfo& info = session_.last_recovery();
      if (!info.recovered) {
        std::printf("log is empty; nothing to recover\n");
      } else {
        std::printf("recovered to lsn %llu: checkpoint=%s, %lld txn(s) "
                    "replayed%s\n",
                    static_cast<unsigned long long>(info.last_lsn),
                    info.had_checkpoint ? "yes" : "no",
                    static_cast<long long>(info.replayed),
                    info.truncated_tail_bytes > 0 ? " (torn tail truncated)"
                                                  : "");
      }
    } else if (cmd == ".reset-io") {
      session_.db().counter().Reset();
      std::printf("ok\n");
    } else if (cmd == ".session") {
      SessionCommand(words);
    } else if (cmd == ".commit") {
      TxnSession* txn = ActiveTxn();
      if (txn == nullptr) {
        std::printf("no concurrent session active (.session open)\n");
        return true;
      }
      auto outcome = txn->Commit();
      if (!outcome.ok()) {
        std::printf("error: %s\n", outcome.status().ToString().c_str());
        return true;
      }
      switch (outcome->kind) {
        case CommitOutcome::Kind::kCommitted:
          std::printf("committed at epoch %llu\n",
                      static_cast<unsigned long long>(outcome->epoch));
          break;
        case CommitOutcome::Kind::kConflict:
          std::printf("CONFLICT: %s\n"
                      "staged changes kept — .retry for a fresh snapshot "
                      "(then re-run), or .abort to drop them\n",
                      outcome->detail.c_str());
          break;
        case CommitOutcome::Kind::kRejected:
          std::printf("REJECTED: assertion %s would be violated "
                      "(staged changes dropped)\n",
                      outcome->detail.c_str());
          break;
      }
    } else if (cmd == ".abort") {
      TxnSession* txn = ActiveTxn();
      if (txn == nullptr) {
        std::printf("no concurrent session active (.session open)\n");
        return true;
      }
      txn->Abort();
      std::printf("aborted; fresh snapshot at epoch %llu\n",
                  static_cast<unsigned long long>(txn->snapshot_epoch()));
    } else if (cmd == ".retry") {
      TxnSession* txn = ActiveTxn();
      if (txn == nullptr) {
        std::printf("no concurrent session active (.session open)\n");
        return true;
      }
      txn->Restart();
      std::printf("retrying on snapshot epoch %llu — re-run your "
                  "statements, then .commit\n",
                  static_cast<unsigned long long>(txn->snapshot_epoch()));
    } else {
      std::printf("unknown command %s (.help for help)\n", cmd.c_str());
    }
    return true;
  }

  void SessionCommand(const std::vector<std::string>& words) {
    const std::string sub = words.size() > 1 ? words[1] : "list";
    if (sub == "list") {
      std::printf("%c main (serial, owning session)\n",
                  active_.empty() ? '*' : ' ');
      for (const auto& [name, txn] : txn_sessions_) {
        std::printf("%c %s (snapshot epoch %llu%s)\n",
                    name == active_ ? '*' : ' ', name.c_str(),
                    static_cast<unsigned long long>(txn->snapshot_epoch()),
                    txn->dirty() ? ", staged changes" : "");
      }
    } else if (sub == "open") {
      if (!session_.prepared()) {
        std::printf(".session open requires .prepare first\n");
        return;
      }
      const std::string name =
          words.size() > 2 ? words[2] : "s" + std::to_string(++session_seq_);
      if (name == "main" || txn_sessions_.count(name) > 0) {
        std::printf("session %s already exists\n", name.c_str());
        return;
      }
      Status enabled = session_.EnableConcurrency();
      if (!enabled.ok()) {
        std::printf("error: %s\n", enabled.ToString().c_str());
        return;
      }
      auto txn = session_.OpenSession();
      if (!txn.ok()) {
        std::printf("error: %s\n", txn.status().ToString().c_str());
        return;
      }
      std::printf("session %s open at snapshot epoch %llu\n", name.c_str(),
                  static_cast<unsigned long long>((*txn)->snapshot_epoch()));
      txn_sessions_[name] = std::move(*txn);
      active_ = name;
    } else if (sub == "switch") {
      if (words.size() < 3) {
        std::printf("usage: .session switch <name|main>\n");
        return;
      }
      const std::string& name = words[2];
      if (name == "main") {
        active_.clear();
        std::printf("now on main (serial session)\n");
      } else if (txn_sessions_.count(name) > 0) {
        active_ = name;
        std::printf("now on %s (snapshot epoch %llu)\n", name.c_str(),
                    static_cast<unsigned long long>(
                        txn_sessions_[name]->snapshot_epoch()));
      } else {
        std::printf("no such session: %s\n", name.c_str());
      }
    } else if (sub == "close") {
      const std::string name = words.size() > 2 ? words[2] : active_;
      auto it = txn_sessions_.find(name);
      if (name.empty() || it == txn_sessions_.end()) {
        std::printf("no such session%s%s\n", name.empty() ? "" : ": ",
                    name.c_str());
        return;
      }
      if (it->second->dirty()) {
        std::printf("dropping staged changes of %s\n", name.c_str());
      }
      txn_sessions_.erase(it);
      if (active_ == name) active_.clear();
      std::printf("session %s closed\n", name.c_str());
    } else {
      std::printf("usage: .session [open [name] | switch <name|main> | "
                  "close [name] | list]\n");
    }
  }

  LineReader reader_;
  Session session_;
  std::vector<TransactionType> workload_;
  std::map<std::string, std::unique_ptr<TxnSession>> txn_sessions_;
  std::string active_;  // "" = the serial owning session
  int session_seq_ = 0;
};

}  // namespace

int main() { return Shell().Run(); }
