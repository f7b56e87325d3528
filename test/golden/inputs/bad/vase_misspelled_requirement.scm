(system s (chain (amplifier (gain 40) (bandwidth 20k))) (require (total_gian 1000000)))
