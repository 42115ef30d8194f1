"""Fixture: per-event allocations inside marked hot functions (fake
repro.sim package — the directory layout gives these modules repro.sim.*
names, which is what scopes the no-hotpath-allocation rule)."""


def deliver_block(block, handlers, submit):
    # repro: hotpath
    for event in block:
        extras = {"topic": event[2]}                  # dict display
        order = [event[1], event[0]]                  # list display
        if event[3] in {event[0], event[1]}:          # set display
            continue
        tags = {name for name in order}               # set comprehension
        submit(event[1], extras)
        handlers[event[0]](order, tags)


def cold_summary(block):
    # Not marked: identical allocations are none of this rule's business.
    return [{"action": event[1]} for event in block]


def bind_pump(network, scratch):
    setup = {"queue": network}  # builder setup: outer function is not hot

    def pump(events):
        # repro: hotpath
        for event in events:
            setup["queue"].append([event])            # list display

    scratch.append(setup)
    return pump


def fallback_send(block, submit):
    # repro: hotpath
    for event in block:
        if event[0] is None:
            # cold branch, deliberately waived:
            # repro: allow[no-hotpath-allocation]
            submit([event[1]])


def warmed_up(block, scratch):
    # repro: hotpath
    for time, seq in block:
        scratch.append((time, seq))  # tuples are free-listed, never flagged
