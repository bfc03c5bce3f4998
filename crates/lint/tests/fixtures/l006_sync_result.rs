//! L006 fixture: dropped sync/write results and fsync-retry loops in the fail-stop
//! storage layer.  Analyzed under the synthetic path `core/src/file_store/write_back.rs`, so the
//! rule is in scope for the whole file.

fn dropped_sync(file: &std::fs::File) {
    file.sync_data(); // L006: Result dropped in statement position
}

fn dropped_sync_all(file: &std::fs::File) {
    file.sync_all(); // L006
}

fn dropped_write(file: &std::fs::File, page: &[u8]) {
    file.write_all_at(page, 0); // L006
}

fn dropped_set_len(file: &std::fs::File) {
    file.set_len(4096); // L006
}

fn dropped_through_field(store: &Store) {
    store.inner.file.sync_data(); // L006: chained receiver, still a bare statement
}

fn consumed_by_question_mark(file: &std::fs::File) -> std::io::Result<()> {
    file.sync_data()?; // ok: `?` consumes the Result
    Ok(())
}

fn consumed_by_let(file: &std::fs::File) {
    let outcome = file.sync_data(); // ok: bound
    let _ = file.sync_all(); // ok: explicitly discarded by binding
    drop(outcome);
}

fn consumed_by_map_err(file: &std::fs::File) -> Result<(), StoreFault> {
    file.sync_data().map_err(|error| StoreFault::from_io("sync", &error)) // ok: mapped
}

fn consumed_by_return(file: &std::fs::File) -> std::io::Result<()> {
    return file.sync_data(); // ok: returned
}

fn consumed_as_argument(file: &std::fs::File) {
    poison_on_error(file.sync_data()); // ok: argument position
}

fn fsync_retry_loop(file: &std::fs::File) -> std::io::Result<()> {
    for attempt in 0..3 {
        if file.sync_data().is_ok() {
            // L006: fsync inside a loop body — fsyncgate
            return Ok(());
        }
        let _ = attempt;
    }
    Err(std::io::Error::other("sync failed"))
}

fn fsync_retry_while(file: &std::fs::File) {
    while file.sync_all().is_err() { // L006: retried fsync
        std::thread::yield_now();
    }
}

fn write_retry_loop_is_fine(file: &std::fs::File, page: &[u8]) -> std::io::Result<()> {
    // Loop check covers fsync only: rewriting a page after EINTR is sound because no
    // kernel state was consumed, so `write_all_at` in a loop is not flagged.
    loop {
        match file.write_all_at(page, 0) {
            Ok(()) => return Ok(()),
            Err(error) if error.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(error) => return Err(error),
        }
    }
}

fn waived_drop(file: &std::fs::File) {
    // gss-lint: allow(L006, best-effort pre-close flush, poisoning handled upstream)
    file.sync_data();
}

impl Syncer for Store {
    // `impl Trait for Type` must not count as a loop body.
    fn flush(&self) -> std::io::Result<()> {
        self.file.sync_data()
    }
}
