#!/usr/bin/env python3
# Verify the hand-written backward passes against central finite differences.
#
# Both training losses (the triplet ranking loss and the two-branch match
# loss) are differentiated manually, layer by layer. The checker perturbs
# every parameter entry by +-h and compares the numeric slope with the
# analytic gradient. Dropout stays active but frozen: the loss closure
# reseeds its random stream on every call, so all probes see the same masks.
#
# `gradcheck_models` builds small towers (7-dim users, 24-dim items, hidden
# layers 8, 6, 4, 4, latent dim 4) and a batch of 3, and randomizes every
# parameter, biases included: the zero-bias production init would park some
# ReLUs exactly at their kink, which a finite difference straddles. It is
# what `tripletrec gradcheck` and acceptance criterion 1 run.

from tripletrec.cli import gradcheck_models

triplet, twonet = gradcheck_models(1)
print(f"checking {triplet.n_entries} parameter entries, batch of 3")
print(f"triplet ranking loss : {triplet.summary()}")
print(f"two-branch match loss: {twonet.summary()}")
