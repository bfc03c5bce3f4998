//! `gss-lint`: a project-invariant static analyzer for this workspace's own sources.
//!
//! The pager's lock hierarchy, the WAL's never-panic replay contract and the "all raw
//! I/O lives in the storage layer" convention were prose in module docs until this
//! crate; here they are mechanized as six rules over a token stream
//! ([`lexer`]) with intra-procedural guard-liveness tracking:
//!
//! | rule | name               | fires when |
//! |------|--------------------|------------|
//! | L001 | lock-order         | the WAL append mutex is acquired while a stripe, page-latch or group-commit guard is live; a stripe mutex while a latch or WAL guard is live; the group-commit mutex while a stripe or latch guard is live |
//! | L002 | io-under-stripe    | `read_exact_at` / `write_all_at` / `sync_data` / `sync_all` / `set_len` runs while a stripe mutex guard is live |
//! | L003 | panic-in-recovery  | `unwrap` / `expect` / `panic!` / `unreachable!` / `todo!` / range-indexing inside WAL replay or `FileStore` open/recovery functions |
//! | L004 | raw-io-containment | `std::fs` / `OpenOptions` / `.seek(` outside `pager/`, `file_store/`, `wal.rs` and the snapshot module — and, in the server crate, outside `net.rs`, its one sanctioned socket/file-I/O module |
//! | L005 | unjustified-relaxed| `Ordering::Relaxed` without an adjacent `// relaxed:` justification |
//! | L006 | sync-result-hygiene| in `pager/`, `file_store/`, `wal.rs` or `group_commit.rs`: a `sync_data` / `sync_all` / `write_all_at` / `set_len` call whose `Result` is dropped in statement position, or an fsync (`sync_data` / `sync_all`) lexically inside a `loop` / `while` / `for` body — a dropped sync result lies about durability, and a retried fsync re-acknowledges bytes the kernel may already have thrown away (the "fsyncgate" hazard) |
//!
//! A finding is silenced by `// gss-lint: allow(RULE, reason)` on the same or the
//! preceding line; the reason is mandatory and surfaced by the binary's waiver
//! inventory.  Guard liveness is lexical: a `let`-bound guard lives to the end of its
//! block or until `drop(name)`, so the classic false positive — a guard explicitly
//! dropped before the next acquisition — does not fire.
//!
//! The analysis is deliberately intra-procedural and name-based (`wal.lock()`,
//! `slots.lock()`, `data.read()` / `cache.write()`): it leans on the repo's own naming
//! conventions instead of type information, which is exactly the right trade for a
//! linter that must build in seconds with zero dependencies.

pub mod lexer;

use lexer::{Lexed, Tok, TokKind};

/// The six project-invariant rules, with stable IDs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rule {
    /// Lock-order: WAL acquired under a stripe/latch guard, stripe under a latch/WAL.
    L001,
    /// File I/O issued while a page-table stripe mutex guard is live.
    L002,
    /// A panic path inside WAL replay or `FileStore` open/recovery.
    L003,
    /// Raw file I/O outside the storage layer.
    L004,
    /// `Ordering::Relaxed` without a written justification.
    L005,
    /// A dropped sync/write `Result`, or an fsync inside a retry loop, in the
    /// fail-stop-critical storage files.
    L006,
}

impl Rule {
    pub const ALL: [Rule; 6] =
        [Rule::L001, Rule::L002, Rule::L003, Rule::L004, Rule::L005, Rule::L006];

    pub fn id(self) -> &'static str {
        match self {
            Rule::L001 => "L001",
            Rule::L002 => "L002",
            Rule::L003 => "L003",
            Rule::L004 => "L004",
            Rule::L005 => "L005",
            Rule::L006 => "L006",
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Rule::L001 => "lock-order",
            Rule::L002 => "io-under-stripe",
            Rule::L003 => "panic-in-recovery",
            Rule::L004 => "raw-io-containment",
            Rule::L005 => "unjustified-relaxed",
            Rule::L006 => "sync-result-hygiene",
        }
    }

    pub fn parse(s: &str) -> Option<Rule> {
        Rule::ALL.into_iter().find(|r| r.id() == s.trim())
    }
}

/// One rule violation at a source line.
#[derive(Debug, Clone)]
pub struct Finding {
    pub rule: Rule,
    pub line: u32,
    pub message: String,
    /// Set when an adjacent `gss-lint: allow` waiver covers this finding.
    pub waived: bool,
}

/// One `// gss-lint: allow(RULE, reason)` comment.
#[derive(Debug, Clone)]
pub struct Waiver {
    pub line: u32,
    pub rule: Option<Rule>,
    pub reason: String,
    /// Set when at least one finding was silenced by this waiver (stale otherwise).
    pub used: bool,
}

/// Everything the analyzer produced for one file.
#[derive(Debug, Default)]
pub struct FileReport {
    pub findings: Vec<Finding>,
    pub waivers: Vec<Waiver>,
    /// Names in this file's L003 scope list that match no `fn` in it.  A rename that
    /// leaves the list behind would silently drop the function from the panic-free
    /// recovery rule, so `--deny-all` treats a non-empty list as a failure.
    pub unmatched_scope: Vec<&'static str>,
}

impl FileReport {
    /// Findings not covered by a waiver.
    pub fn unwaived(&self) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(|f| !f.waived)
    }
}

/// Whether `path` lies inside the directory module `dir` (`pager`, `file_store`).
fn in_module_dir(path: &str, dir: &str) -> bool {
    path.split('/').rev().skip(1).any(|component| component == dir)
}

/// Functions whose bodies rule L003 covers, per file: the WAL replay path and the
/// `FileStore` open path (`file_store/open.rs`, plus the header decode it
/// starts with in `file_store/format.rs`).  Read-path panics (`io_fail`) are a
/// deliberate design decision and stay out of scope.  Every name must match a `fn` in
/// its file ([`FileReport::unmatched_scope`]).
fn l003_scope(path: &str, basename: &str) -> &'static [&'static str] {
    match basename {
        "wal.rs" => &["read_replay", "parse_frame", "take", "u64"],
        "open.rs" if in_module_dir(path, "file_store") => {
            &["open", "assemble", "section_end", "read_bytes", "read_section", "rebuild_index"]
        }
        "format.rs" if in_module_dir(path, "file_store") => &["decode", "field"],
        _ => &[],
    }
}

/// Modules allowed to touch `std::fs` / `seek` under rule L004: the pager family, the
/// WAL, the paged store itself, and the streaming-snapshot module.
///
/// The server crate gets exactly one exemption: `net.rs`, its framed-connection
/// module, where every socket read/write plus the two filesystem touches the binary
/// needs (reading the tenant config, creating the data directory) are confined.  The
/// rest of the crate — protocol codecs, namespace registry, dispatch loop, client —
/// must stay free of raw I/O so the wire format and the tenancy logic remain testable
/// without a socket and auditable without chasing `std::fs` calls.
fn l004_exempt(path: &str, basename: &str) -> bool {
    in_module_dir(path, "pager")
        || in_module_dir(path, "file_store")
        || matches!(basename, "wal.rs" | "persistence.rs")
        || (path.contains("server/src/") && basename == "net.rs")
}

/// Files rule L006 covers: the fail-stop-critical storage layer, where a dropped sync
/// result silently lies about durability and a retried fsync re-acknowledges bytes the
/// kernel may already have dropped.
fn l006_applies(path: &str, basename: &str) -> bool {
    path.contains("core/src/")
        && (in_module_dir(path, "pager")
            || in_module_dir(path, "file_store")
            || matches!(basename, "wal.rs" | "group_commit.rs"))
}

/// Analyzes one file.  `path` is the workspace-relative path (used for scoping rules);
/// `source` is the file content.
pub fn analyze_file(path: &str, source: &str) -> FileReport {
    let path = path.replace('\\', "/");
    let basename = path.rsplit('/').next().unwrap_or(&path).to_string();
    let lexed = lexer::lex(source);
    let mut report = FileReport { waivers: parse_waivers(&lexed), ..FileReport::default() };
    let defined = Engine::new(&path, &basename, &lexed).run(&mut report.findings);
    report.unmatched_scope = l003_scope(&path, &basename)
        .iter()
        .copied()
        .filter(|name| !defined.iter().any(|defined| defined == name))
        .collect();
    for finding in &mut report.findings {
        for waiver in &mut report.waivers {
            let covers = waiver.rule == Some(finding.rule)
                && (waiver.line == finding.line || waiver.line + 1 == finding.line);
            if covers {
                finding.waived = true;
                waiver.used = true;
            }
        }
    }
    report
}

fn parse_waivers(lexed: &Lexed) -> Vec<Waiver> {
    let mut waivers = Vec::new();
    for comment in &lexed.comments {
        // Doc comments (`///`, `//!`) describe the waiver syntax; only plain `//`
        // comments can actually waive a finding.
        if comment.text.starts_with('/') || comment.text.starts_with('!') {
            continue;
        }
        let Some(at) = comment.text.find("gss-lint:") else { continue };
        let rest = comment.text[at + "gss-lint:".len()..].trim_start();
        let Some(args) = rest.strip_prefix("allow(") else { continue };
        let body = args.rfind(')').map_or(args, |end| &args[..end]);
        let (rule, reason) = match body.split_once(',') {
            Some((rule, reason)) => (rule, reason.trim()),
            None => (body, ""),
        };
        waivers.push(Waiver {
            line: comment.line,
            rule: Rule::parse(rule),
            reason: reason.to_string(),
            used: false,
        });
    }
    waivers
}

/// Lock classes the guard tracker distinguishes (the runtime witness in
/// `gss_core::witness` mirrors these dynamically).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum GuardClass {
    Stripe,
    Latch,
    Wal,
    /// The group-commit coordinator's state mutex (`GroupCommitter::group`).  A leaf
    /// in practice: the elected leader drops it before touching any member's WAL, so
    /// holding it across a `wal.lock()` is an inversion.
    Group,
}

impl GuardClass {
    fn describe(self) -> &'static str {
        match self {
            GuardClass::Stripe => "stripe-mutex",
            GuardClass::Latch => "page-latch",
            GuardClass::Wal => "WAL-append",
            GuardClass::Group => "group-commit",
        }
    }
}

#[derive(Debug)]
struct Guard {
    name: String,
    class: GuardClass,
    /// Brace depth of the block the binding lives in; popped when the block closes.
    depth: i32,
    line: u32,
}

struct Engine<'a> {
    toks: &'a [Tok],
    comments: &'a [lexer::Comment],
    /// Token indices inside `#[cfg(test)] mod` bodies, which every rule skips.
    skipped: Vec<bool>,
    l003_scope: &'static [&'static str],
    l004_applies: bool,
    l006_applies: bool,
}

impl<'a> Engine<'a> {
    fn new(path: &str, basename: &str, lexed: &'a Lexed) -> Self {
        // L004 polices the two crates with a designated I/O layer: core (storage
        // modules) and server (net.rs).
        let l004_in_scope = path.contains("core/src/") || path.contains("server/src/");
        Self {
            toks: &lexed.tokens,
            comments: &lexed.comments,
            skipped: mark_cfg_test(&lexed.tokens),
            l003_scope: l003_scope(path, basename),
            l004_applies: l004_in_scope && !l004_exempt(path, basename),
            l006_applies: l006_applies(path, basename),
        }
    }

    /// Runs every rule over the file, returning the names of the (non-test) functions
    /// it defines.
    fn run(&self, findings: &mut Vec<Finding>) -> Vec<String> {
        let toks = self.toks;
        let mut defined: Vec<String> = Vec::new();
        let mut depth = 0i32;
        // Named-function stack: (name, depth the body opened at).  Closures only add
        // depth, so the top entry is always the innermost *named* function.
        let mut fns: Vec<(String, i32)> = Vec::new();
        let mut pending_fn: Option<String> = None;
        let mut guards: Vec<Guard> = Vec::new();
        let mut pending_let: Option<String> = None;
        // Loop-body stack for L006: brace depths at which a `loop`/`while`/`for` body
        // opened.  Non-empty means the current token is lexically inside a loop.
        let mut loops: Vec<i32> = Vec::new();
        let mut pending_loop = false;
        for i in 0..toks.len() {
            if self.skipped[i] {
                continue;
            }
            let tok = &toks[i];
            let in_scope_fn =
                fns.last().is_some_and(|(name, _)| self.l003_scope.contains(&name.as_str()));
            match tok.kind {
                TokKind::Punct('{') => {
                    depth += 1;
                    if let Some(name) = pending_fn.take() {
                        fns.push((name, depth));
                    }
                    if pending_loop {
                        loops.push(depth);
                        pending_loop = false;
                    }
                }
                TokKind::Punct('}') => {
                    depth -= 1;
                    guards.retain(|g| g.depth <= depth);
                    loops.retain(|&d| d <= depth);
                    if fns.last().is_some_and(|&(_, d)| d > depth) {
                        fns.pop();
                    }
                }
                TokKind::Punct(';') => {
                    pending_let = None;
                    pending_fn = None; // trait method declarations have no body
                    pending_loop = false;
                }
                TokKind::Punct('[') => {
                    self.check_range_index(i, in_scope_fn, findings);
                }
                TokKind::Ident => match tok.text.as_str() {
                    "fn" => {
                        if let Some(name) = toks.get(i + 1).filter(|t| t.kind == TokKind::Ident) {
                            pending_fn = Some(name.text.clone());
                            defined.push(name.text.clone());
                        }
                    }
                    "loop" | "while" => {
                        pending_loop = true;
                    }
                    // `for` opens a loop body only in `for pat in iter {` — an `in`
                    // before the brace distinguishes it from `impl Trait for Type {`.
                    "for" => {
                        let mut j = i + 1;
                        while toks.get(j).is_some_and(|t| !t.is_punct('{') && !t.is_punct(';')) {
                            if toks[j].is_ident("in") {
                                pending_loop = true;
                                break;
                            }
                            j += 1;
                        }
                    }
                    "let" => {
                        let mut j = i + 1;
                        while toks.get(j).is_some_and(|t| t.is_ident("mut")) {
                            j += 1;
                        }
                        pending_let = toks
                            .get(j)
                            .filter(|t| t.kind == TokKind::Ident)
                            .map(|t| t.text.clone());
                    }
                    // `drop(name)` ends the guard's liveness early.
                    "drop"
                        if toks.get(i + 1).is_some_and(|t| t.is_punct('('))
                            && toks.get(i + 3).is_some_and(|t| t.is_punct(')')) =>
                    {
                        if let Some(name) = toks.get(i + 2).filter(|t| t.kind == TokKind::Ident) {
                            guards.retain(|g| g.name != name.text);
                        }
                    }
                    "panic" | "unreachable" | "todo"
                        if in_scope_fn && toks.get(i + 1).is_some_and(|t| t.is_punct('!')) =>
                    {
                        findings.push(Finding {
                            rule: Rule::L003,
                            line: tok.line,
                            message: format!(
                                "`{}!` inside recovery/replay function `{}` — corrupt \
                                 input must end the valid prefix, not abort",
                                tok.text,
                                fns.last().map(|(n, _)| n.as_str()).unwrap_or("?")
                            ),
                            waived: false,
                        });
                    }
                    "std"
                        if self.l004_applies
                            && toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
                            && toks.get(i + 2).is_some_and(|t| t.is_punct(':'))
                            && toks.get(i + 3).is_some_and(|t| t.is_ident("fs")) =>
                    {
                        findings.push(Finding {
                            rule: Rule::L004,
                            line: tok.line,
                            message: "`std::fs` outside the storage layer — route file \
                                      access through pager/, file_store/, wal.rs or \
                                      persistence.rs"
                                .to_string(),
                            waived: false,
                        });
                    }
                    "OpenOptions" if self.l004_applies => {
                        findings.push(Finding {
                            rule: Rule::L004,
                            line: tok.line,
                            message: "`OpenOptions` outside the storage layer".to_string(),
                            waived: false,
                        });
                    }
                    "Ordering"
                        if toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
                            && toks.get(i + 2).is_some_and(|t| t.is_punct(':'))
                            && toks.get(i + 3).is_some_and(|t| t.is_ident("Relaxed"))
                            && !self.relaxed_is_justified(i) =>
                    {
                        findings.push(Finding {
                            rule: Rule::L005,
                            line: tok.line,
                            message: "`Ordering::Relaxed` without an adjacent \
                                      `// relaxed:` justification comment"
                                .to_string(),
                            waived: false,
                        });
                    }
                    _ => {}
                },
                TokKind::Punct('.') => {
                    self.check_method(
                        i,
                        in_scope_fn,
                        // A `while cond` expression re-runs per iteration even though
                        // its body brace has not opened yet — pending counts.
                        !loops.is_empty() || pending_loop,
                        &mut guards,
                        &mut pending_let,
                        depth,
                        findings,
                    );
                }
                _ => {}
            }
        }
        defined
    }

    /// Handles `recv.method(` windows: lock acquisitions (L001 + guard tracking), file
    /// I/O under a stripe (L002), `.seek(` containment (L004), `.unwrap()`/`.expect(`
    /// in recovery scope (L003).
    #[allow(clippy::too_many_arguments)]
    fn check_method(
        &self,
        i: usize,
        in_scope_fn: bool,
        in_loop: bool,
        guards: &mut Vec<Guard>,
        pending_let: &mut Option<String>,
        depth: i32,
        findings: &mut Vec<Finding>,
    ) {
        let toks = self.toks;
        let Some(method) = toks.get(i + 1).filter(|t| t.kind == TokKind::Ident) else { return };
        if !toks.get(i + 2).is_some_and(|t| t.is_punct('(')) {
            return;
        }
        let line = method.line;
        let receiver =
            i.checked_sub(1).and_then(|p| toks.get(p)).filter(|t| t.kind == TokKind::Ident);
        let acquired = match (receiver.map(|t| t.text.as_str()), method.text.as_str()) {
            (Some("wal"), "lock") => Some(GuardClass::Wal),
            (Some("slots"), "lock") => Some(GuardClass::Stripe),
            (Some("group" | "group_token"), "lock") => Some(GuardClass::Group),
            (Some("data"), "read" | "write" | "try_read" | "try_write") => Some(GuardClass::Latch),
            (Some("cache"), "read" | "write") => Some(GuardClass::Latch),
            _ => None,
        };
        if let Some(class) = acquired {
            let conflicts: &[GuardClass] = match class {
                GuardClass::Wal => &[GuardClass::Stripe, GuardClass::Latch, GuardClass::Group],
                GuardClass::Stripe => &[GuardClass::Latch, GuardClass::Wal],
                GuardClass::Group => &[GuardClass::Stripe, GuardClass::Latch],
                GuardClass::Latch => &[],
            };
            for held in guards.iter().filter(|g| conflicts.contains(&g.class)) {
                findings.push(Finding {
                    rule: Rule::L001,
                    line,
                    message: format!(
                        "acquiring the {} lock while the {} guard `{}` (line {}) is live \
                         inverts the pager lock order",
                        class.describe(),
                        held.class.describe(),
                        held.name,
                        held.line
                    ),
                    waived: false,
                });
            }
            if let Some(name) = pending_let.take() {
                guards.push(Guard { name, class, depth, line });
            }
        }
        if self.l006_applies {
            match method.text.as_str() {
                "sync_data" | "sync_all" | "write_all_at" | "set_len" => {
                    if self.sync_result_dropped(i) {
                        findings.push(Finding {
                            rule: Rule::L006,
                            line,
                            message: format!(
                                "`{}` result dropped in statement position — a failed \
                                 write/sync must poison the store, not vanish",
                                method.text
                            ),
                            waived: false,
                        });
                    }
                    if in_loop && matches!(method.text.as_str(), "sync_data" | "sync_all") {
                        findings.push(Finding {
                            rule: Rule::L006,
                            line,
                            message: format!(
                                "`{}` inside a loop body — a failed fsync clears the \
                                 kernel's dirty flags, so retrying it re-acknowledges \
                                 bytes that may already be lost; fail stop instead",
                                method.text
                            ),
                            waived: false,
                        });
                    }
                }
                _ => {}
            }
        }
        match method.text.as_str() {
            "read_exact_at" | "write_all_at" | "sync_data" | "sync_all" | "set_len" => {
                for held in guards.iter().filter(|g| g.class == GuardClass::Stripe) {
                    findings.push(Finding {
                        rule: Rule::L002,
                        line,
                        message: format!(
                            "file I/O (`{}`) while the stripe-mutex guard `{}` (line {}) is \
                             live — stripe mutexes guard map operations only",
                            method.text, held.name, held.line
                        ),
                        waived: false,
                    });
                }
            }
            "seek" if self.l004_applies => {
                findings.push(Finding {
                    rule: Rule::L004,
                    line,
                    message: "`.seek(` outside the storage layer".to_string(),
                    waived: false,
                });
            }
            "unwrap" | "expect" if in_scope_fn => {
                findings.push(Finding {
                    rule: Rule::L003,
                    line,
                    message: format!(
                        "`.{}()` inside a recovery/replay function — corrupt input must \
                         end the valid prefix, not panic",
                        method.text
                    ),
                    waived: false,
                });
            }
            _ => {}
        }
    }

    /// L006 pattern A: is the call at `i` (the `.` token of `recv.method(...)`) a bare
    /// statement whose `Result` nothing consumes?  Forward: the matching `)` must be
    /// followed directly by `;` — a trailing `?`, `.map_err(`, `.expect(` or an
    /// enclosing call all consume the value.  Backward: the receiver chain (idents and
    /// `.` only) must start at a statement boundary — `let _ =`, `return`, `=`, or an
    /// argument position mean the caller sees the `Result`.
    fn sync_result_dropped(&self, i: usize) -> bool {
        let toks = self.toks;
        let mut nest = 0i32;
        let mut j = i + 2;
        while j < toks.len() {
            match toks[j].kind {
                TokKind::Punct('(') => nest += 1,
                TokKind::Punct(')') => {
                    nest -= 1;
                    if nest == 0 {
                        break;
                    }
                }
                _ => {}
            }
            j += 1;
        }
        if !toks.get(j + 1).is_some_and(|t| t.is_punct(';')) {
            return false;
        }
        let mut k = i;
        while k > 0 {
            let prev = &toks[k - 1];
            match prev.kind {
                TokKind::Ident
                    if matches!(prev.text.as_str(), "return" | "let" | "else" | "break") =>
                {
                    return false;
                }
                TokKind::Ident | TokKind::Punct('.') => k -= 1,
                TokKind::Punct(';') | TokKind::Punct('{') | TokKind::Punct('}') => return true,
                _ => return false,
            }
        }
        true
    }

    /// L003 range-indexing: a `[` in index position (previous token is an identifier,
    /// `)`, `]` or `?`) whose bracket body contains `..` can panic on short slices.
    fn check_range_index(&self, i: usize, in_scope_fn: bool, findings: &mut Vec<Finding>) {
        if !in_scope_fn {
            return;
        }
        let toks = self.toks;
        let indexes = i.checked_sub(1).and_then(|p| toks.get(p)).is_some_and(|t| {
            t.kind == TokKind::Ident || t.is_punct(')') || t.is_punct(']') || t.is_punct('?')
        });
        if !indexes {
            return;
        }
        let mut nest = 1i32;
        let mut j = i + 1;
        while j < toks.len() && nest > 0 {
            match toks[j].kind {
                TokKind::Punct('[') => nest += 1,
                TokKind::Punct(']') => nest -= 1,
                TokKind::Punct('.') if toks.get(j + 1).is_some_and(|t| t.is_punct('.')) => {
                    findings.push(Finding {
                        rule: Rule::L003,
                        line: toks[i].line,
                        message: "range-indexing inside a recovery/replay function — use \
                                  `get(..)` so short input ends the prefix instead of \
                                  panicking"
                            .to_string(),
                        waived: false,
                    });
                    return;
                }
                _ => {}
            }
            j += 1;
        }
    }

    /// A `Relaxed` use is justified by a `relaxed:` comment on its own or the three
    /// preceding lines (multi-line statements).  Statistics counters carry theirs once,
    /// in `gss_core::metrics`' two helpers.
    fn relaxed_is_justified(&self, i: usize) -> bool {
        let line = self.toks[i].line;
        self.comments
            .iter()
            .any(|c| c.line + 3 >= line && c.line <= line && c.text.contains("relaxed:"))
    }
}

/// Marks every token inside a `#[cfg(test)] mod ... { ... }` body (tests are exempt
/// from all rules: they panic on purpose and open their own temp files).
fn mark_cfg_test(toks: &[Tok]) -> Vec<bool> {
    let mut skipped = vec![false; toks.len()];
    let mut i = 0usize;
    while i < toks.len() {
        if is_cfg_test_attr(toks, i) {
            // Skip this and any further attributes, then expect `mod name {`.
            let mut j = skip_attr(toks, i);
            while toks.get(j).is_some_and(|t| t.is_punct('#')) {
                j = skip_attr(toks, j);
            }
            if toks.get(j).is_some_and(|t| t.is_ident("mod")) {
                if let Some(open) = (j..toks.len()).find(|&k| toks[k].is_punct('{')) {
                    let mut nest = 0i32;
                    let mut k = open;
                    while k < toks.len() {
                        match toks[k].kind {
                            TokKind::Punct('{') => nest += 1,
                            TokKind::Punct('}') => {
                                nest -= 1;
                                if nest == 0 {
                                    break;
                                }
                            }
                            _ => {}
                        }
                        skipped[k] = true;
                        k += 1;
                    }
                    if k < toks.len() {
                        skipped[k] = true;
                    }
                    i = k + 1;
                    continue;
                }
            }
        }
        i += 1;
    }
    skipped
}

/// Whether tokens at `i` begin exactly `#[cfg(test)]`.
fn is_cfg_test_attr(toks: &[Tok], i: usize) -> bool {
    toks.get(i).is_some_and(|t| t.is_punct('#'))
        && toks.get(i + 1).is_some_and(|t| t.is_punct('['))
        && toks.get(i + 2).is_some_and(|t| t.is_ident("cfg"))
        && toks.get(i + 3).is_some_and(|t| t.is_punct('('))
        && toks.get(i + 4).is_some_and(|t| t.is_ident("test"))
        && toks.get(i + 5).is_some_and(|t| t.is_punct(')'))
        && toks.get(i + 6).is_some_and(|t| t.is_punct(']'))
}

/// Returns the index just past the `#[...]` attribute starting at `i`.
fn skip_attr(toks: &[Tok], i: usize) -> usize {
    let Some(open) = (i..toks.len()).find(|&k| toks[k].is_punct('[')) else { return i + 1 };
    let mut nest = 0i32;
    for (k, tok) in toks.iter().enumerate().skip(open) {
        match tok.kind {
            TokKind::Punct('[') => nest += 1,
            TokKind::Punct(']') => {
                nest -= 1;
                if nest == 0 {
                    return k + 1;
                }
            }
            _ => {}
        }
    }
    toks.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules_fired(path: &str, source: &str) -> Vec<Rule> {
        analyze_file(path, source).findings.iter().map(|f| f.rule).collect()
    }

    #[test]
    fn waiver_parsing_extracts_rule_and_reason() {
        let report = analyze_file(
            "crates/core/src/x.rs",
            "// gss-lint: allow(L001, the slot is pinned (strong count > 1))\nfn f() {}\n",
        );
        assert_eq!(report.waivers.len(), 1);
        assert_eq!(report.waivers[0].rule, Some(Rule::L001));
        assert_eq!(report.waivers[0].reason, "the slot is pinned (strong count > 1)");
        assert!(!report.waivers[0].used, "no finding: the waiver is stale");
    }

    #[test]
    fn a_scoped_name_matching_no_fn_is_reported() {
        let source = "fn open() {}\nfn recover() {}\nfn assemble() {}\n\
                      fn section_end() {}\nfn read_bytes() {}\nfn read_section() {}\n\
                      fn rebuild_index() {}\n";
        let open_rs = "crates/core/src/file_store/open.rs";
        let report = analyze_file(open_rs, source);
        assert!(report.unmatched_scope.is_empty(), "{:?}", report.unmatched_scope);
        // One rename (or a misspelt list entry) and the rule would stop covering the
        // function without this check noticing.
        let renamed = source.replace("fn open(", "fn open_with_group(");
        let report = analyze_file(open_rs, &renamed);
        assert_eq!(report.unmatched_scope, ["open"]);
        // Functions that exist only inside `#[cfg(test)]` do not count.
        let test_only = renamed + "#[cfg(test)]\nmod tests {\n    fn open() {}\n}\n";
        let report = analyze_file(open_rs, &test_only);
        assert_eq!(report.unmatched_scope, ["open"]);
        // The scope follows the directory module, not the bare file name.
        assert!(analyze_file("crates/core/src/open.rs", "fn f() {}\n").unmatched_scope.is_empty());
        assert_eq!(
            analyze_file("crates/core/src/file_store/format.rs", "fn decode() {}\n")
                .unmatched_scope,
            ["field"]
        );
        // Files without a scope list have nothing to match.
        assert!(analyze_file("crates/core/src/x.rs", "fn f() {}\n").unmatched_scope.is_empty());
    }

    #[test]
    fn cfg_test_modules_are_exempt() {
        let source = "#[cfg(test)]\nmod tests {\n    fn f() { std::fs::read(\"x\"); }\n}\n";
        assert!(rules_fired("crates/core/src/plain.rs", source).is_empty());
    }

    #[test]
    fn guard_scope_ends_at_block_close() {
        let source = "fn f(&self) {\n    {\n        let slots = self.table.slots.lock();\n    }\n    let wal = self.wal.lock();\n}\n";
        assert!(rules_fired("crates/core/src/x.rs", source).is_empty());
    }

    #[test]
    fn server_raw_io_is_contained_to_net_rs() {
        let io = "fn f() { let s = std::fs::read_to_string(\"tenants.conf\"); }\n";
        assert_eq!(rules_fired("crates/server/src/namespace.rs", io), vec![Rule::L004]);
        assert!(rules_fired("crates/server/src/net.rs", io).is_empty());
    }

    #[test]
    fn wal_acquired_under_a_group_commit_guard_inverts_the_order() {
        let source =
            "fn f(&self) {\n    let group = self.group.lock();\n    let wal = member.wal.lock();\n}\n";
        assert_eq!(rules_fired("crates/core/src/group_commit.rs", source), vec![Rule::L001]);
    }

    #[test]
    fn group_commit_acquired_under_a_stripe_guard_inverts_the_order() {
        let source =
            "fn f(&self) {\n    let slots = self.slots.lock();\n    let group = self.group.lock();\n}\n";
        assert_eq!(rules_fired("crates/core/src/x.rs", source), vec![Rule::L001]);
    }

    #[test]
    fn group_commit_guard_released_before_the_wal_is_silent() {
        let source = "fn f(&self) {\n    let group = self.group.lock();\n    drop(group);\n    let wal = member.wal.lock();\n}\n";
        assert!(rules_fired("crates/core/src/group_commit.rs", source).is_empty());
    }
}
