module firmup/bench

go 1.22

require firmup v0.0.0

replace firmup => ../
