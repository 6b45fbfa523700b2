"""The four logics and their intended frame classes / languages."""

from __future__ import annotations

from enum import Enum

from .errors import LanguageMismatch
from .model import LANGUAGES, FrameClass
from .syntax import Formula, LanguageTag, language_of


class Logic(Enum):
    C = "C"
    CnK = "CnK"
    CnCK = "CnCK"
    CnCK_R = "CnCKR"

    @property
    def frame_class(self) -> FrameClass:
        return _FRAME_CLASSES[self]

    @property
    def languages(self) -> frozenset[LanguageTag]:
        return LANGUAGES[self.frame_class.kind]

    def admits(self, f: Formula) -> bool:
        return language_of(f) in self.languages

    def require(self, f: Formula) -> None:
        if not self.admits(f):
            raise LanguageMismatch(
                f"{language_of(f).value} formula is outside the language of {self.value}")


_FRAME_CLASSES = {Logic.C: FrameClass.P, Logic.CnK: FrameClass.FSM,
                  Logic.CnCK: FrameClass.FSC, Logic.CnCK_R: FrameClass.FSC_R}


_BY_NAME = {lg.value: lg for lg in Logic}


def logic_from_name(name: str) -> Logic:
    lg = _BY_NAME.get(name)
    if lg is None:
        raise ValueError(f"unknown logic {name!r}; use C, CnK, CnCK, or CnCKR")
    return lg
