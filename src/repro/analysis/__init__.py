"""Request critical paths and tail latency (:mod:`.critpath`)."""
