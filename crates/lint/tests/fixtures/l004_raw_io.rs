// Fixture: raw file I/O outside the storage layer — analyzed under a synthetic
// `crates/core/src/` path that is none of pager/, file_store/, wal.rs,
// persistence.rs.
fn sneaky_io(path: &Path) {
    let bytes = std::fs::read(path); // fires L004
    let file = OpenOptions::new().read(true).open(path); // fires L004
    file.seek(SeekFrom::Start(0)); // fires L004
}
