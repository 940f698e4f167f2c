//! In-memory labelled image datasets and batching.

use ft_tensor::Tensor;
use rand::seq::SliceRandom;
use rand::Rng;
use std::sync::Arc;

/// A labelled image dataset stored as one flat `f32` buffer.
///
/// Images use `[c, h, w]` layout per sample; batches come out as
/// `[n, c, h, w]` tensors ready for the models in `ft-nn`. A dataset never
/// changes once built, so its clones share its sample buffers: a clone
/// copies no samples.
#[derive(Clone, Debug)]
pub struct Dataset {
    images: Arc<Vec<f32>>,
    labels: Arc<Vec<usize>>,
    channels: usize,
    height: usize,
    width: usize,
    classes: usize,
}

impl Dataset {
    /// Wraps raw buffers.
    ///
    /// # Panics
    ///
    /// Panics if buffer sizes are inconsistent or any label is out of range.
    pub fn new(
        images: Vec<f32>,
        labels: Vec<usize>,
        channels: usize,
        height: usize,
        width: usize,
        classes: usize,
    ) -> Self {
        let sample = channels * height * width;
        assert!(sample > 0, "sample size must be positive");
        assert_eq!(
            images.len(),
            labels.len() * sample,
            "images/labels size mismatch"
        );
        assert!(labels.iter().all(|&y| y < classes), "label out of range");
        Dataset {
            images: Arc::new(images),
            labels: Arc::new(labels),
            channels,
            height,
            width,
            classes,
        }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether the dataset holds no samples.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Number of classes.
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// `[channels, height, width]` of each sample.
    pub fn sample_shape(&self) -> [usize; 3] {
        [self.channels, self.height, self.width]
    }

    /// Labels slice.
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// Assembles the samples at `indices` into a `[n, c, h, w]` batch.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range.
    pub fn batch(&self, indices: &[usize]) -> (Tensor, Vec<usize>) {
        let mut buf = BatchBuf::default();
        self.batch_into(indices, &mut buf);
        (buf.images, buf.labels)
    }

    /// [`Dataset::batch`] writing into a caller-owned [`BatchBuf`], reusing
    /// its buffers: repeated batching (the training loop, the eval cadence)
    /// allocates nothing at steady state.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range.
    pub fn batch_into(&self, indices: &[usize], buf: &mut BatchBuf) {
        let sample = self.channels * self.height * self.width;
        buf.images
            .resize_for_overwrite(&[indices.len(), self.channels, self.height, self.width]);
        let data = buf.images.data_mut();
        buf.labels.clear();
        for (slot, &i) in indices.iter().enumerate() {
            assert!(i < self.len(), "sample index {i} out of range");
            data[slot * sample..(slot + 1) * sample]
                .copy_from_slice(&self.images[i * sample..(i + 1) * sample]);
            buf.labels.push(self.labels[i]);
        }
    }

    /// Batches the contiguous index range `start..end` without an index
    /// vector — the shape of every sequential eval sweep.
    ///
    /// # Panics
    ///
    /// Panics if `start > end` or `end > len()`.
    pub fn batch_range_into(&self, start: usize, end: usize, buf: &mut BatchBuf) {
        assert!(
            start <= end && end <= self.len(),
            "bad range {start}..{end}"
        );
        let sample = self.channels * self.height * self.width;
        let n = end - start;
        buf.images
            .resize_for_overwrite(&[n, self.channels, self.height, self.width]);
        buf.images
            .data_mut()
            .copy_from_slice(&self.images[start * sample..end * sample]);
        buf.labels.clear();
        buf.labels.extend_from_slice(&self.labels[start..end]);
    }

    /// The whole dataset as one batch.
    pub fn full_batch(&self) -> (Tensor, Vec<usize>) {
        let mut buf = BatchBuf::default();
        self.batch_range_into(0, self.len(), &mut buf);
        (buf.images, buf.labels)
    }

    /// A new dataset containing only the samples at `indices`.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range.
    pub fn subset(&self, indices: &[usize]) -> Dataset {
        let sample = self.channels * self.height * self.width;
        let mut images = Vec::with_capacity(indices.len() * sample);
        let mut labels = Vec::with_capacity(indices.len());
        for &i in indices {
            assert!(i < self.len(), "sample index {i} out of range");
            images.extend_from_slice(&self.images[i * sample..(i + 1) * sample]);
            labels.push(self.labels[i]);
        }
        Dataset {
            images: Arc::new(images),
            labels: Arc::new(labels),
            channels: self.channels,
            height: self.height,
            width: self.width,
            classes: self.classes,
        }
    }

    /// Samples a development split of `ceil(frac · len)` examples without
    /// replacement — the `D̂_k ⊂ D_k` of Alg. 1 (ratio 0.1 in the paper).
    ///
    /// # Panics
    ///
    /// Panics if `frac` is not in `(0, 1]`.
    pub fn dev_split<R: Rng + ?Sized>(&self, rng: &mut R, frac: f32) -> Dataset {
        assert!(
            frac > 0.0 && frac <= 1.0,
            "dev fraction must be in (0,1], got {frac}"
        );
        let n = ((self.len() as f32 * frac).ceil() as usize).clamp(1.min(self.len()), self.len());
        let mut idx: Vec<usize> = (0..self.len()).collect();
        idx.shuffle(rng);
        idx.truncate(n);
        self.subset(&idx)
    }

    /// Per-class sample counts (length = `classes`).
    pub fn class_histogram(&self) -> Vec<usize> {
        let mut h = vec![0usize; self.classes];
        for &y in self.labels.iter() {
            h[y] += 1;
        }
        h
    }
}

/// Reusable batch assembly buffers for [`Dataset::batch_into`] /
/// [`Dataset::batch_range_into`].
///
/// Holds the `[n, c, h, w]` image tensor and the label vector; both are
/// resized in place, so one `BatchBuf` per training/eval loop amortizes all
/// batching allocations away.
#[derive(Clone, Debug, Default)]
pub struct BatchBuf {
    /// Batch images, `[n, c, h, w]`.
    pub images: Tensor,
    /// Batch labels, length `n`.
    pub labels: Vec<usize>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn ds() -> Dataset {
        // 4 samples of 1x2x2, labels 0..=3 over 4 classes.
        let images: Vec<f32> = (0..16).map(|v| v as f32).collect();
        Dataset::new(images, vec![0, 1, 2, 3], 1, 2, 2, 4)
    }

    #[test]
    fn batch_layout() {
        let d = ds();
        let (x, y) = d.batch(&[1, 3]);
        assert_eq!(x.shape(), &[2, 1, 2, 2]);
        assert_eq!(y, vec![1, 3]);
        assert_eq!(x.data()[0], 4.0); // first pixel of sample 1
    }

    #[test]
    fn batch_into_reuses_buffers_and_matches_batch() {
        let d = ds();
        let mut buf = BatchBuf::default();
        d.batch_into(&[1, 3], &mut buf);
        let (x, y) = d.batch(&[1, 3]);
        assert_eq!(buf.images.shape(), x.shape());
        assert_eq!(buf.images.data(), x.data());
        assert_eq!(buf.labels, y);
        // Refill with a different geometry: no stale contents.
        d.batch_into(&[0], &mut buf);
        assert_eq!(buf.images.shape(), &[1, 1, 2, 2]);
        assert_eq!(buf.labels, &[0]);
        assert_eq!(buf.images.data()[0], 0.0);
    }

    #[test]
    fn batch_range_matches_indexed_batch() {
        let d = ds();
        let mut buf = BatchBuf::default();
        d.batch_range_into(1, 3, &mut buf);
        let (x, y) = d.batch(&[1, 2]);
        assert_eq!(buf.images.data(), x.data());
        assert_eq!(buf.labels, y);
        // Full range equals full_batch.
        d.batch_range_into(0, d.len(), &mut buf);
        let (fx, fy) = d.full_batch();
        assert_eq!(buf.images.data(), fx.data());
        assert_eq!(buf.labels, fy);
    }

    #[test]
    #[should_panic(expected = "bad range")]
    fn batch_range_rejects_overrun() {
        let d = ds();
        let mut buf = BatchBuf::default();
        d.batch_range_into(2, 5, &mut buf);
    }

    #[test]
    fn subset_preserves_meta() {
        let d = ds().subset(&[0, 2]);
        assert_eq!(d.len(), 2);
        assert_eq!(d.classes(), 4);
        assert_eq!(d.labels(), &[0, 2]);
    }

    #[test]
    fn clones_share_their_buffers() {
        let d = ds();
        let c = d.clone();
        assert!(Arc::ptr_eq(&d.images, &c.images));
        assert!(Arc::ptr_eq(&d.labels, &c.labels));
    }

    #[test]
    fn dev_split_size() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let d = ds();
        let dev = d.dev_split(&mut rng, 0.5);
        assert_eq!(dev.len(), 2);
        let dev_small = d.dev_split(&mut rng, 0.1);
        assert_eq!(dev_small.len(), 1); // ceil + floor at 1
    }

    #[test]
    fn histogram_counts() {
        let d = Dataset::new(vec![0.0; 3 * 4], vec![1, 1, 2], 1, 2, 2, 3);
        assert_eq!(d.class_histogram(), vec![0, 2, 1]);
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn rejects_inconsistent_buffers() {
        let _ = Dataset::new(vec![0.0; 5], vec![0], 1, 2, 2, 1);
    }

    #[test]
    #[should_panic(expected = "label out of range")]
    fn rejects_bad_labels() {
        let _ = Dataset::new(vec![0.0; 4], vec![7], 1, 2, 2, 2);
    }
}
