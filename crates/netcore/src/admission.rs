//! Admission epochs: when a refused injection may succeed again.
//!
//! A network refuses an injection when the source's injection queue is
//! full, and a refused [`Network::inject`](crate::Network::inject) has no
//! side effect except counting one rejection. So the same packet offered
//! again is certain to be refused until something frees space for it.
//! [`AdmissionEpochs`] lets a network say when that may have happened:
//! a per-source-site counter it bumps whenever a packet it refused from
//! that site might now be accepted (one of the site's injection queues
//! dequeued, a fault or repair changed routing or masking). A driver that
//! records a stalled packet's epoch at refusal only needs to re-offer it
//! once the epoch moved.

/// A network's admission epochs: one counter per source site plus a
/// common counter that wakes every site at once.
///
/// # Example
///
/// ```
/// use netcore::AdmissionEpochs;
///
/// let mut epochs = AdmissionEpochs::new(4);
/// let before = epochs.view().key(2);
/// epochs.bump(1); // site 1's queue dequeued: site 2 is unaffected
/// assert_eq!(epochs.view().key(2), before);
/// epochs.bump_all(); // a fault: every site may admit again
/// assert_ne!(epochs.view().key(2), before);
/// ```
#[derive(Debug)]
pub struct AdmissionEpochs {
    sites: Vec<u64>,
    common: u64,
    generation: u64,
}

impl AdmissionEpochs {
    /// Epochs for a network of `sites` source sites, all at zero.
    pub fn new(sites: usize) -> AdmissionEpochs {
        AdmissionEpochs {
            sites: vec![0; sites],
            common: 0,
            generation: 0,
        }
    }

    /// Packets from `site` refused earlier might now be accepted.
    #[inline]
    pub fn bump(&mut self, site: usize) {
        self.sites[site] += 1;
        self.generation += 1;
    }

    /// Packets from any site refused earlier might now be accepted.
    pub fn bump_all(&mut self) {
        self.common += 1;
        self.generation += 1;
    }

    /// The read-only view a driver compares against.
    #[inline]
    pub fn view(&self) -> Admission<'_> {
        Admission {
            sites: &self.sites,
            common: self.common,
            generation: self.generation,
        }
    }
}

/// A snapshot of a network's admission epochs, as returned by
/// [`Network::admission_epochs`](crate::Network::admission_epochs).
///
/// Every value only grows, so comparing for equality is enough to tell
/// whether anything changed.
#[derive(Debug, Clone, Copy)]
pub struct Admission<'a> {
    /// Per-source-site epochs, indexed by [`SiteId::index`](crate::SiteId::index).
    pub sites: &'a [u64],
    /// Added to every site's epoch: bumping it wakes every site.
    pub common: u64,
    /// Changes whenever any site's [`key`](Admission::key) changes. Equal
    /// generations mean no refused packet anywhere can have been woken.
    pub generation: u64,
}

impl Admission<'_> {
    /// The wake key of `site`: a packet from `site` refused while the key
    /// had this value is refused again until the key changes.
    #[inline]
    pub fn key(&self, site: usize) -> u64 {
        self.sites[site] + self.common
    }

    /// Folds a wrapper's own counter into every key and the generation,
    /// for wrappers whose refusals also depend on state of their own (the
    /// fault wrapper's dead-site set). `epoch` must only grow.
    pub fn folded(self, epoch: u64) -> Self {
        Admission {
            sites: self.sites,
            common: self.common + epoch,
            generation: self.generation + epoch,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn site_bumps_move_only_that_site_and_the_generation() {
        let mut e = AdmissionEpochs::new(3);
        let g0 = e.view().generation;
        e.bump(0);
        let v = e.view();
        assert_eq!((v.key(0), v.key(1), v.key(2)), (1, 0, 0));
        assert_ne!(v.generation, g0);
    }

    #[test]
    fn folding_moves_every_key_and_the_generation() {
        let mut e = AdmissionEpochs::new(2);
        e.bump(1);
        let v = e.view().folded(5);
        assert_eq!((v.key(0), v.key(1)), (5, 6));
        assert_eq!(v.generation, e.view().generation + 5);
    }
}
