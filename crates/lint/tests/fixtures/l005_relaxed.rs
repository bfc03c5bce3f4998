// Fixture: `Ordering::Relaxed` uses — two bare (both fire, a statistics counter
// included: counters go through `gss_core::metrics`), one carrying the required
// justification comment.
fn counters(&self) {
    self.lookups.fetch_add(1, Ordering::Relaxed); // fires L005
    self.clock.fetch_add(1, Ordering::Relaxed); // fires L005
    // relaxed: monotone clock; readers only need an eventually-fresh value.
    self.clock.fetch_add(1, Ordering::Relaxed);
}
