"""The "UCR format": fixed-length, aligned, z-normalised exemplars.

The paper's central observation is that the UCR format bakes in assumptions
(equal length, careful alignment, whole-exemplar z-normalisation, padding with
uninformative data) that do not survive contact with a streaming deployment.
This module provides the container those assumptions live in, so the rest of
the library can be explicit about when data is or is not in that format.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from repro.distance.znorm import is_znormalized, znormalize
from repro.memory import get_memory_budget

__all__ = ["UCRDataset", "train_test_split"]


def _require_finite(series: np.ndarray) -> None:
    """Raise if ``series`` contains NaN/inf, scanning in budget-bounded chunks.

    A single ``np.isfinite(series)`` call allocates a full-size boolean array
    -- for a memory-mapped shard that is an extra ``n * L`` bytes of
    anonymous memory on top of paging the whole file in at construction
    time.  Scanning row blocks sized against the global
    :mod:`repro.memory` budget keeps the validation temporary bounded no
    matter how large the dataset is.
    """
    # isfinite emits one bool per float64 element; 9 bytes per element keeps
    # the chunk (values read + bool temporary) inside the budget.  A row is
    # every element of one exemplar: L for univariate, L * d for multichannel.
    row_bytes = max(1, int(np.prod(series.shape[1:]))) * 9
    rows = max(1, get_memory_budget() // row_bytes)
    for start in range(0, series.shape[0], rows):
        if not np.all(np.isfinite(series[start : start + rows])):
            raise ValueError("series contains non-finite values")


@dataclass(frozen=True)
class UCRDataset:
    """A dataset of equal-length, time-aligned, labelled exemplars.

    Attributes
    ----------
    name:
        Human-readable dataset name (e.g. ``"SyntheticGunPoint"``).
    series:
        Float array of shape ``(n_exemplars, length)`` for univariate data
        or ``(n_exemplars, length, n_channels)`` for multichannel data
        (axis 0 = exemplar, axis 1 = time, axis 2 = channel).  A 3-D array
        with a single trailing channel is squeezed to 2-D at construction,
        so ``d = 1`` datasets are bit-identical to historical univariate
        ones no matter which layout produced them.
    labels:
        1-D array of class labels, one per exemplar.
    znormalized:
        Whether each exemplar has been individually z-normalised (the UCR
        archive convention).  Kept as explicit state because Section 4 of the
        paper is entirely about what happens when this flag is silently and
        wrongly assumed to be ``True``.
    metadata:
        Free-form dictionary (generator parameters, provenance, ...).
    validate:
        Run the (chunked) finiteness scan at construction time.  ``True``
        for every in-memory dataset; :mod:`repro.data.shards` passes
        ``False`` for memory-mapped shard views whose contents were already
        validated and content-hashed at write time -- scanning them again
        would page the whole shard in just to construct the view.  Excluded
        from equality and ``repr``.
    """

    name: str
    series: np.ndarray
    labels: np.ndarray
    znormalized: bool = False
    metadata: dict = field(default_factory=dict)
    validate: bool = field(default=True, compare=False, repr=False)

    def __post_init__(self) -> None:
        series = self.series
        if not (isinstance(series, np.ndarray) and series.dtype == np.float64):
            # Only coerce when the input is not already a float64 ndarray.
            # An eager np.asarray(..., dtype=float) here would downcast a
            # memory-mapped shard view to a plain ndarray (and copy anything
            # non-float64), silently materialising out-of-core data.
            series = np.asarray(series, dtype=float)
        labels = np.asarray(self.labels)
        if series.ndim == 3 and series.shape[2] == 1:
            # (n, L, 1) is univariate in disguise: squeeze to the exact 2-D
            # layout so every downstream kernel runs its historical path.
            series = series[:, :, 0]
        if series.ndim not in (2, 3):
            raise ValueError(
                "series must be 2-D (n_exemplars, length) or 3-D "
                f"(n_exemplars, length, n_channels); got shape {series.shape}"
            )
        if series.ndim == 3 and series.shape[2] == 0:
            raise ValueError(
                "series has an empty channel axis (axis 2); got shape "
                f"{series.shape}"
            )
        if series.shape[0] == 0 or series.shape[1] == 0:
            raise ValueError("dataset must contain at least one non-empty exemplar")
        if labels.ndim != 1 or labels.shape[0] != series.shape[0]:
            raise ValueError("labels must be 1-D with one entry per exemplar")
        if self.validate:
            _require_finite(series)
        object.__setattr__(self, "series", series)
        object.__setattr__(self, "labels", labels)

    # ------------------------------------------------------------ properties
    def __len__(self) -> int:
        return int(self.series.shape[0])

    @property
    def n_exemplars(self) -> int:
        """Number of exemplars in the dataset."""
        return int(self.series.shape[0])

    @property
    def series_length(self) -> int:
        """Length (number of samples) of every exemplar."""
        return int(self.series.shape[1])

    @property
    def n_channels(self) -> int:
        """Channels per sample: 1 for univariate (2-D) datasets."""
        return int(self.series.shape[2]) if self.series.ndim == 3 else 1

    @property
    def classes(self) -> tuple:
        """Sorted tuple of distinct class labels."""
        return tuple(np.unique(self.labels).tolist())

    @property
    def n_classes(self) -> int:
        return len(self.classes)

    def class_counts(self) -> dict:
        """Mapping of class label to number of exemplars."""
        values, counts = np.unique(self.labels, return_counts=True)
        return {v.item() if hasattr(v, "item") else v: int(c) for v, c in zip(values, counts)}

    # ------------------------------------------------------------ transforms
    def z_normalized(self) -> "UCRDataset":
        """Return a copy with every exemplar individually z-normalised."""
        return replace(self, series=znormalize(self.series), znormalized=True)

    def verify_znormalized(self, atol: float = 1e-6) -> bool:
        """Check that every exemplar really is z-normalised.

        Multichannel exemplars must be z-normalised per channel over the
        time axis (statistics are never pooled across channels).
        """
        if self.series.ndim == 3:
            return all(
                is_znormalized(row, atol=atol, channel_axis=-1)
                for row in self.series
            )
        return all(is_znormalized(row, atol=atol) for row in self.series)

    def truncated(self, length: int, renormalize: bool = False) -> "UCRDataset":
        """Keep only the first ``length`` samples of every exemplar.

        Parameters
        ----------
        length:
            Prefix length to keep (1 <= length <= series_length).
        renormalize:
            If ``True``, re-z-normalise each truncated exemplar using only the
            retained prefix (the honest option for early classification).  If
            ``False`` the raw prefix values are kept, which is what a model
            "peeking into the future" implicitly relies on.
        """
        if not 1 <= length <= self.series_length:
            raise ValueError(
                f"length must be in [1, {self.series_length}], got {length}"
            )
        prefix = self.series[:, :length].copy()
        if renormalize:
            prefix = znormalize(prefix)
        return replace(
            self,
            series=prefix,
            znormalized=renormalize,
            metadata={**self.metadata, "truncated_to": length},
        )

    def subset(self, indices: Sequence[int]) -> "UCRDataset":
        """Return a dataset containing only the exemplars at ``indices``."""
        idx = np.asarray(list(indices), dtype=int)
        if idx.size == 0:
            raise ValueError("subset requires at least one index")
        return replace(self, series=self.series[idx].copy(), labels=self.labels[idx].copy())

    def exemplars_of_class(self, label) -> np.ndarray:
        """2-D array of all exemplars with the given class label."""
        mask = self.labels == label
        if not np.any(mask):
            raise KeyError(f"no exemplars with label {label!r}")
        return self.series[mask].copy()

    def shuffled(self, rng: np.random.Generator) -> "UCRDataset":
        """Return a copy with exemplars shuffled (labels kept aligned)."""
        order = rng.permutation(self.n_exemplars)
        return self.subset(order)

    def concatenate(self, other: "UCRDataset", name: str | None = None) -> "UCRDataset":
        """Stack two datasets with the same series length."""
        if other.series_length != self.series_length:
            raise ValueError("datasets must have the same series length")
        if other.n_channels != self.n_channels:
            raise ValueError(
                "datasets must have the same channel count (axis 2); got "
                f"{self.n_channels} and {other.n_channels}"
            )
        return UCRDataset(
            name=name or f"{self.name}+{other.name}",
            series=np.vstack([self.series, other.series]),
            labels=np.concatenate([self.labels, other.labels]),
            znormalized=self.znormalized and other.znormalized,
            metadata={**self.metadata, **other.metadata},
        )

    # ------------------------------------------------------------ persistence
    def to_tsv(self, path: str | Path) -> Path:
        """Write the dataset in the UCR archive's TSV layout (label first)."""
        path = Path(path)
        with path.open("w", encoding="utf-8") as handle:
            handle.write(self.to_tsv_string())
        return path

    def to_tsv_string(self) -> str:
        """Serialise to the UCR TSV layout as a string.

        The archive's TSV layout is one scalar per time step, so only
        univariate datasets can round-trip through it; multichannel data
        belongs in :mod:`repro.data.shards`.
        """
        if self.series.ndim == 3:
            raise ValueError(
                "the UCR TSV layout is univariate (one value per time step); "
                f"cannot serialise a dataset with n_channels={self.n_channels} "
                "-- use repro.data.shards for multichannel persistence"
            )
        buffer = io.StringIO()
        for label, row in zip(self.labels, self.series):
            values = "\t".join(f"{v:.10g}" for v in row)
            buffer.write(f"{label}\t{values}\n")
        return buffer.getvalue()

    @classmethod
    def from_tsv_string(
        cls, text: str, name: str = "dataset", znormalized: bool = False
    ) -> "UCRDataset":
        """Parse a dataset from the UCR TSV layout."""
        series_rows: list[list[float]] = []
        labels: list[str] = []
        for line_number, line in enumerate(text.splitlines(), start=1):
            line = line.strip()
            if not line:
                continue
            fields = line.replace(",", "\t").split("\t")
            if len(fields) < 2:
                raise ValueError(f"line {line_number}: expected label and values")
            labels.append(fields[0])
            series_rows.append([float(v) for v in fields[1:]])
        if not series_rows:
            raise ValueError("no data rows found")
        lengths = {len(row) for row in series_rows}
        if len(lengths) != 1:
            raise ValueError("all exemplars must have the same length in UCR format")
        label_array: np.ndarray = np.asarray(labels)
        # Preserve integer labels (the archive uses 1, 2, ...) when possible.
        try:
            label_array = label_array.astype(int)
        except ValueError:
            pass
        return cls(
            name=name,
            series=np.asarray(series_rows, dtype=float),
            labels=label_array,
            znormalized=znormalized,
        )

    @classmethod
    def from_tsv(cls, path: str | Path, znormalized: bool = False) -> "UCRDataset":
        """Read a dataset from a UCR-layout TSV file."""
        path = Path(path)
        return cls.from_tsv_string(
            path.read_text(encoding="utf-8"), name=path.stem, znormalized=znormalized
        )


def train_test_split(
    dataset: UCRDataset,
    train_fraction: float = 0.25,
    rng: np.random.Generator | None = None,
    stratified: bool = True,
) -> tuple[UCRDataset, UCRDataset]:
    """Split a dataset into train and test partitions.

    The default ``train_fraction`` of 0.25 mirrors GunPoint's unusual 50-train
    / 150-test split, which the ETSC literature inherited from the archive.

    Parameters
    ----------
    dataset:
        The dataset to split.
    train_fraction:
        Fraction of exemplars assigned to the training partition.
    rng:
        Source of randomness; defaults to a fixed-seed generator so the split
        is reproducible.
    stratified:
        If ``True`` (default), preserve class proportions in both partitions.

    Returns
    -------
    (train, test):
        Two :class:`UCRDataset` instances named ``"<name>-train"`` and
        ``"<name>-test"``.
    """
    if not 0.0 < train_fraction < 1.0:
        raise ValueError("train_fraction must be strictly between 0 and 1")
    if rng is None:
        rng = np.random.default_rng(0)

    indices = np.arange(dataset.n_exemplars)
    train_idx: list[int] = []
    test_idx: list[int] = []
    if stratified:
        for cls in dataset.classes:
            cls_idx = indices[dataset.labels == cls]
            cls_idx = rng.permutation(cls_idx)
            n_train = max(1, int(round(train_fraction * cls_idx.size)))
            n_train = min(n_train, cls_idx.size - 1) if cls_idx.size > 1 else n_train
            train_idx.extend(cls_idx[:n_train].tolist())
            test_idx.extend(cls_idx[n_train:].tolist())
    else:
        shuffled = rng.permutation(indices)
        n_train = max(1, int(round(train_fraction * indices.size)))
        train_idx = shuffled[:n_train].tolist()
        test_idx = shuffled[n_train:].tolist()

    if not test_idx:
        raise ValueError("split left the test partition empty; lower train_fraction")

    train = dataset.subset(sorted(train_idx))
    test = dataset.subset(sorted(test_idx))
    train = replace(train, name=f"{dataset.name}-train")
    test = replace(test, name=f"{dataset.name}-test")
    return train, test
