module compcache/bench

go 1.22

require compcache v0.0.0

replace compcache => ../..
