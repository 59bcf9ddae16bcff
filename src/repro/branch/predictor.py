"""Front-end branch prediction facade: PPM + BTB + RAS."""

from __future__ import annotations

from ..isa.instructions import Opcode
from ..functional.trace import DynInst
from .btb import BTB
from .ppm import PPMPredictor
from .ras import RAS


class BranchPredictor:
    """Combines direction, target, and return-address prediction.

    The timing engines call :meth:`predict` when a control instruction
    is fetched and :meth:`update` when it resolves.  ``predict`` returns
    whether the *dynamic* outcome recorded in the trace matches the
    prediction — the engines turn a mismatch into a front-end redirect
    at execute.
    """

    def __init__(self, ppm: PPMPredictor | None = None, btb: BTB | None = None,
                 ras: RAS | None = None) -> None:
        self.ppm = ppm if ppm is not None else PPMPredictor()
        self.btb = btb if btb is not None else BTB()
        self.ras = ras if ras is not None else RAS()
        self.predictions = 0
        self.mispredictions = 0

    # ------------------------------------------------------------------
    def predict(self, dyn: DynInst) -> bool:
        """Predict ``dyn``; True when the prediction is correct.

        Training happens separately in :meth:`update` (at resolve), but
        RAS speculation (push/pop) happens here, at fetch, as in a real
        front end.
        """
        self.predictions += 1
        if dyn.is_branch:
            # Direct conditional branches carry their target in the
            # instruction, so direction is the only source of error.
            if self.ppm.predict(dyn.pc) == dyn.taken:
                return True
        else:
            op = dyn.op
            if op is not Opcode.JR:
                if op is Opcode.JAL:
                    self.ras.push(dyn.pc + 4)
                return True  # direct jump or call: target known at decode
            predicted_target = self.ras.pop()
            if predicted_target is None:
                predicted_target = self.btb.predict(dyn.pc)
            if predicted_target == dyn.target_pc:
                return True
        self.mispredictions += 1
        return False

    def update(self, dyn: DynInst) -> None:
        """Train predictor state with the resolved outcome."""
        if dyn.is_branch:
            self.ppm.update(dyn.pc, dyn.taken)
        if dyn.taken and dyn.target_pc is not None:
            self.btb.update(dyn.pc, dyn.target_pc)

    @property
    def accuracy(self) -> float:
        if not self.predictions:
            return 1.0
        return 1.0 - self.mispredictions / self.predictions
