module sopr/bench

go 1.22

require sopr v0.0.0

replace sopr => ../
