"""NIC receiver doubles for the segment tests (the receiver contract is
documented in :mod:`repro.net.nic`)."""


class Receiver:
    """Calls ``fn(packet)`` ``rx_delay_us`` after each arriving frame;
    frames of a kind in ``folds`` may be folded by the segment."""

    def __init__(self, fn, rx_delay_us: int = 0, folds=()):
        self.fn = fn
        self.rx_delay_us = rx_delay_us
        self.rx_folds = frozenset(folds)

    @staticmethod
    def rx_frame(packet, receivers):
        for receiver in receivers:
            receiver.fn(packet)


def install(nic, fn, rx_delay_us: int = 0, folds=()) -> Receiver:
    """Install a :class:`Receiver` running ``fn`` on ``nic``."""
    receiver = Receiver(fn, rx_delay_us, folds)
    nic.install_handler(receiver)
    return receiver
