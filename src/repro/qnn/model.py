"""QNN architectures: blocks of encoder + trainable layers + measurement.

Figure 2 of the paper: a QNN is a cascade of blocks.  Block 0 encodes the
classical features (image pixels / vowel PCA components); each subsequent
block re-encodes the previous block's (normalized, quantized) measurement
outcomes with RY gates.  Every block ends in a Pauli-Z measurement of all
qubits.

Naming follows the paper: "2B x 12L on Santiago" is
``QNNArchitecture(n_qubits=4, n_blocks=2, n_layers=12)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.circuits.circuit import Circuit
from repro.qnn.encoders import EncoderSpec, encoder_for_features, reupload_encoder
from repro.qnn.layers import design_space
from repro.utils.cache import circuit_cache
from repro.utils.rng import as_rng

#: Folded / repeated copies retained per block, keyed on (kind, count).
_DERIVED_CACHE_SIZE = 8


@dataclass(frozen=True)
class QNNArchitecture:
    """Hyper-structure of a QNN model.

    ``n_features`` is the raw input dimension consumed by block 0 (16 for
    4x4 images, 36 for 6x6, 10 for vowel); later blocks always consume
    ``n_qubits`` re-uploaded values.
    """

    n_qubits: int
    n_blocks: int
    n_layers: int
    n_features: int
    n_classes: int
    design: str = "u3cu3"

    def __post_init__(self) -> None:
        if self.n_blocks < 1 or self.n_layers < 1:
            raise ValueError("need at least one block and one layer")
        if self.n_classes < 2:
            raise ValueError("need at least two classes")
        if self.n_classes > 2 and self.n_classes > self.n_qubits:
            raise ValueError(
                f"{self.n_classes}-class head needs >= {self.n_classes} qubits"
            )
        design_space(self.design)  # validate the name eagerly

    @property
    def label(self) -> str:
        return f"{self.n_blocks}B x {self.n_layers}L ({self.design})"


class QNN:
    """A concrete QNN: per-block circuits plus weight bookkeeping.

    Each block's circuit indexes its trainable weights locally from 0;
    :attr:`weight_slices` maps block-local weights into the single global
    weight vector that the optimizer updates.
    """

    def __init__(self, arch: QNNArchitecture):
        self.arch = arch
        self.blocks: "list[Circuit]" = []
        self.encoders: "list[EncoderSpec]" = []
        self.weight_slices: "list[slice]" = []
        offset = 0
        builder = design_space(arch.design)
        for b in range(arch.n_blocks):
            if b == 0:
                encoder = encoder_for_features(arch.n_features, arch.n_qubits)
            else:
                encoder = reupload_encoder(arch.n_qubits)
            circuit = Circuit(arch.n_qubits)
            encoder.append_to(circuit)
            w = 0
            for _layer in range(arch.n_layers):
                w = builder(circuit, w)
            self.blocks.append(circuit)
            self.encoders.append(encoder)
            self.weight_slices.append(slice(offset, offset + w))
            offset += w
        self.n_weights = offset

    @property
    def n_qubits(self) -> int:
        return self.arch.n_qubits

    @property
    def n_blocks(self) -> int:
        return self.arch.n_blocks

    def block_weights(self, weights: np.ndarray, block: int) -> np.ndarray:
        """Slice the global weight vector for one block."""
        return weights[self.weight_slices[block]]

    def init_weights(
        self, rng: "int | np.random.Generator | None" = None, scale: float = 0.3
    ) -> np.ndarray:
        """Gaussian initialization of all rotation angles."""
        rng = as_rng(rng)
        return rng.normal(0.0, scale, size=self.n_weights)

    def folded_block(self, block: int, n_folds: int) -> Circuit:
        """Function-preserving noise amplification: U (U^dag U)^k.

        Folds only the *trainable* part (the encoder stays single), giving
        layer-count multiples 1x, 3x, 5x, ... -- the knob zero-noise
        extrapolation turns (paper Table 4).
        """
        if n_folds < 0:
            raise ValueError("n_folds must be >= 0")

        def build(folded: Circuit, trainable: Circuit) -> Circuit:
            folded.extend(trainable)
            inverse = trainable.inverse()
            for _ in range(n_folds):
                folded.extend(inverse)
                folded.extend(trainable)
            return folded

        return self._derived_block(block, ("fold", n_folds), build)

    def repeated_block(self, block: int, n_repeats: int) -> Circuit:
        """Literal layer repetition (weights shared), as described in
        Table 4: "repeat the 3 layers to 6, 9, 12 layers".

        Unlike folding this changes the computed function; it is used only
        to scale noise for std-extrapolation, never for classification.
        """
        if n_repeats < 1:
            raise ValueError("n_repeats must be >= 1")

        def build(repeated: Circuit, trainable: Circuit) -> Circuit:
            for _ in range(n_repeats):
                repeated.extend(trainable)
            return repeated

        return self._derived_block(block, ("repeat", n_repeats), build)

    def _derived_block(self, block: int, key: tuple, build) -> Circuit:
        """``build(encoder part, trainable part)`` of a block, memoized per key.

        Returning the *same* Circuit object on repeat lets the plans
        cached for it -- its bind plan, its ZNE transpilation -- survive
        across calls instead of being rebuilt every extrapolation step.
        """
        circuit = self.blocks[block]
        n_encoder_gates = self.encoders[block].n_inputs
        return circuit_cache(
            circuit, "qnn.derived", _DERIVED_CACHE_SIZE
        ).get_or_build(key, lambda: build(
            Circuit(circuit.n_qubits, circuit.gates[:n_encoder_gates]),
            Circuit(circuit.n_qubits, circuit.gates[n_encoder_gates:]),
        ))


def head_matrix(n_classes: int, n_qubits: int) -> np.ndarray:
    """Classification head: ``logits = expectations @ head.T``.

    * 2-class: sum the first and second half of the qubits ("we sum the
      qubit 0 and 1, 2 and 3 measurement outcomes"),
    * 4/10-class: softmax directly on the first ``n_classes`` outcomes.
    """
    if n_classes == 2:
        head = np.zeros((2, n_qubits))
        half = n_qubits // 2
        head[0, :half] = 1.0
        head[1, half : 2 * (n_qubits // 2)] = 1.0
        return head
    if n_classes > n_qubits:
        raise ValueError(f"{n_classes} classes need >= {n_classes} qubits")
    head = np.zeros((n_classes, n_qubits))
    head[np.arange(n_classes), np.arange(n_classes)] = 1.0
    return head


# -- paper model shorthands ---------------------------------------------------


def paper_model(
    task_qubits: int,
    n_blocks: int,
    n_layers: int,
    n_features: int,
    n_classes: int,
    design: str = "u3cu3",
) -> QNN:
    """Build a QNN with the paper's naming convention (e.g. 2B x 12L)."""
    arch = QNNArchitecture(
        n_qubits=task_qubits,
        n_blocks=n_blocks,
        n_layers=n_layers,
        n_features=n_features,
        n_classes=n_classes,
        design=design,
    )
    return QNN(arch)
