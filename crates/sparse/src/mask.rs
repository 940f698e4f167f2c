//! Binary masks over a model's prunable parameters.

use crate::SparseLayout;
use serde::{Deserialize, Serialize};

/// A binary mask over every prunable tensor of a model.
///
/// `true` means the weight survives; `false` means it is pruned. The mask is
/// structured per layer so that layer-wise operations (the unit of FedTiny's
/// progressive pruning) are cheap and explicit.
///
/// # Examples
///
/// ```
/// use ft_sparse::{Mask, SparseLayout};
///
/// let layout = SparseLayout::new(vec![("conv".into(), 4), ("fc".into(), 2)]);
/// let mut mask = Mask::ones(&layout);
/// mask.set(0, 1, false);
/// mask.set(0, 3, false);
/// assert_eq!(mask.layer_ones(0), 2);
/// assert!((mask.density() - 4.0 / 6.0).abs() < 1e-6);
///
/// // Zero the pruned weights of layer 0 in place.
/// let mut weights = vec![1.0, 2.0, 3.0, 4.0];
/// mask.apply_layer(0, &mut weights);
/// assert_eq!(weights, vec![1.0, 0.0, 3.0, 0.0]);
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Mask {
    layers: Vec<Vec<bool>>,
}

impl Mask {
    /// All-ones (dense) mask for a layout.
    pub fn ones(layout: &SparseLayout) -> Self {
        Mask {
            layers: layout.iter().map(|l| vec![true; l.len]).collect(),
        }
    }

    /// All-zeros mask for a layout.
    pub fn zeros(layout: &SparseLayout) -> Self {
        Mask {
            layers: layout.iter().map(|l| vec![false; l.len]).collect(),
        }
    }

    /// Builds a mask directly from per-layer boolean vectors.
    pub fn from_layers(layers: Vec<Vec<bool>>) -> Self {
        Mask { layers }
    }

    /// Number of layers.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// The boolean vector of layer `l`.
    ///
    /// # Panics
    ///
    /// Panics if `l` is out of range.
    pub fn layer(&self, l: usize) -> &[bool] {
        &self.layers[l]
    }

    /// Sets one bit.
    ///
    /// # Panics
    ///
    /// Panics if indices are out of range.
    pub fn set(&mut self, layer: usize, idx: usize, alive: bool) {
        self.layers[layer][idx] = alive;
    }

    /// Reads one bit.
    ///
    /// # Panics
    ///
    /// Panics if indices are out of range.
    pub fn get(&self, layer: usize, idx: usize) -> bool {
        self.layers[layer][idx]
    }

    /// Number of surviving weights across all layers.
    pub fn ones_count(&self) -> usize {
        self.layers
            .iter()
            .map(|l| l.iter().filter(|&&b| b).count())
            .sum()
    }

    /// Number of surviving weights in layer `l`.
    ///
    /// # Panics
    ///
    /// Panics if `l` is out of range.
    pub fn layer_ones(&self, l: usize) -> usize {
        self.layers[l].iter().filter(|&&b| b).count()
    }

    /// Total number of maskable weights.
    pub fn total_len(&self) -> usize {
        self.layers.iter().map(|l| l.len()).sum()
    }

    /// Overall density: surviving / total. Returns 1.0 for an empty mask.
    pub fn density(&self) -> f32 {
        let total = self.total_len();
        if total == 0 {
            1.0
        } else {
            self.ones_count() as f32 / total as f32
        }
    }

    /// Density of layer `l`. Returns 1.0 for an empty layer.
    ///
    /// # Panics
    ///
    /// Panics if `l` is out of range.
    pub fn layer_density(&self, l: usize) -> f32 {
        let len = self.layers[l].len();
        if len == 0 {
            1.0
        } else {
            self.layer_ones(l) as f32 / len as f32
        }
    }

    /// Applies the mask to per-layer weight buffers, zeroing pruned entries.
    ///
    /// `weights[l]` must have the same length as mask layer `l`.
    ///
    /// # Panics
    ///
    /// Panics if the number of layers or any layer length differs.
    pub fn apply(&self, weights: &mut [&mut [f32]]) {
        assert_eq!(
            weights.len(),
            self.layers.len(),
            "mask/weights layer count mismatch"
        );
        for (w, m) in weights.iter_mut().zip(self.layers.iter()) {
            assert_eq!(w.len(), m.len(), "mask/weights length mismatch");
            for (v, &alive) in w.iter_mut().zip(m.iter()) {
                if !alive {
                    *v = 0.0;
                }
            }
        }
    }

    /// Applies a single layer of the mask to one flat buffer.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ or `l` is out of range.
    pub fn apply_layer(&self, l: usize, weights: &mut [f32]) {
        let m = &self.layers[l];
        assert_eq!(weights.len(), m.len(), "mask/weights length mismatch");
        for (v, &alive) in weights.iter_mut().zip(m.iter()) {
            if !alive {
                *v = 0.0;
            }
        }
    }

    /// Indices of pruned (dead) entries in layer `l`.
    ///
    /// # Panics
    ///
    /// Panics if `l` is out of range.
    pub fn pruned_indices(&self, l: usize) -> Vec<usize> {
        self.layers[l]
            .iter()
            .enumerate()
            .filter_map(|(i, &b)| (!b).then_some(i))
            .collect()
    }

    /// Indices of surviving (alive) entries in layer `l`.
    ///
    /// # Panics
    ///
    /// Panics if `l` is out of range.
    pub fn alive_indices(&self, l: usize) -> Vec<usize> {
        self.layers[l]
            .iter()
            .enumerate()
            .filter_map(|(i, &b)| b.then_some(i))
            .collect()
    }

    /// Checks this mask is structurally compatible with a layout.
    pub fn matches_layout(&self, layout: &SparseLayout) -> bool {
        self.layers.len() == layout.num_layers()
            && self
                .layers
                .iter()
                .zip(layout.iter())
                .all(|(m, spec)| m.len() == spec.len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layout() -> SparseLayout {
        SparseLayout::new(vec![("a".into(), 4), ("b".into(), 6)])
    }

    #[test]
    fn ones_and_zeros() {
        let l = layout();
        assert_eq!(Mask::ones(&l).density(), 1.0);
        assert_eq!(Mask::zeros(&l).density(), 0.0);
        assert_eq!(Mask::ones(&l).ones_count(), 10);
    }

    #[test]
    fn set_get_and_counts() {
        let mut m = Mask::ones(&layout());
        m.set(1, 5, false);
        m.set(1, 0, false);
        assert!(!m.get(1, 5));
        assert!(m.get(0, 0));
        assert_eq!(m.layer_ones(1), 4);
        assert_eq!(m.ones_count(), 8);
        assert!((m.layer_density(1) - 4.0 / 6.0).abs() < 1e-6);
    }

    #[test]
    fn apply_zeroes_pruned_weights() {
        let mut m = Mask::ones(&layout());
        m.set(0, 1, false);
        let mut wa = vec![1.0, 2.0, 3.0, 4.0];
        let mut wb = vec![9.0; 6];
        m.apply(&mut [&mut wa, &mut wb]);
        assert_eq!(wa, vec![1.0, 0.0, 3.0, 4.0]);
        assert_eq!(wb, vec![9.0; 6]);
    }

    #[test]
    fn apply_layer_single() {
        let mut m = Mask::ones(&layout());
        m.set(0, 0, false);
        let mut w = vec![5.0, 6.0, 7.0, 8.0];
        m.apply_layer(0, &mut w);
        assert_eq!(w, vec![0.0, 6.0, 7.0, 8.0]);
    }

    #[test]
    fn index_queries() {
        let mut m = Mask::ones(&layout());
        m.set(0, 2, false);
        assert_eq!(m.pruned_indices(0), vec![2]);
        assert_eq!(m.alive_indices(0), vec![0, 1, 3]);
    }

    #[test]
    fn layout_compatibility() {
        let l = layout();
        assert!(Mask::ones(&l).matches_layout(&l));
        let other = SparseLayout::new(vec![("a".into(), 4)]);
        assert!(!Mask::ones(&l).matches_layout(&other));
    }

    #[test]
    fn empty_mask_density_is_one() {
        let m = Mask::from_layers(vec![]);
        assert_eq!(m.density(), 1.0);
    }
}
