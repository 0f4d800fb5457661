module splitcnn/bench

go 1.24

require splitcnn v0.0.0

replace splitcnn => ../
